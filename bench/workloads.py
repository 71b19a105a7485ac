"""The three workloads: their operations, inputs built from the seed, and
the check each operation's output must pass.

Every operation is one `mgeneral` command line run through `cli.main` in
this process.  A round is the workload's fixed list of operations; a run
repeats whole rounds, so the share of failed operations is the same in
every run.  Checks compare outputs with `independent`, never with the
package.
"""

from __future__ import annotations

import json
import random
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import independent as ind

NEVER = "1000000000"  # --max-seconds out of reach: cells stop on nodes or exhaustion

# Published or independently derived maxima for the exact cells.
EXACT_MAXIMA = {
    "q2n4m4": 6,  # binary Sidon sets, F_2^4
    "q2n5m4": 7,  # binary Sidon sets, F_2^5
    "q3n3m3": 9,  # caps in AG(3,3); run to exact by probes.py
    "q5n2m3": 6,  # arcs in AG(2,5): q + 1 for odd q
    "q3n3m4": 5,  # re-derived by selftest.py
    "q9n2m4": 3,  # n + 1: any n + 2 points of AG(n,q) are dependent
}
# Largest caps in AG(n,3), n = 3..6: upper limits for greedy and limited cells.
CAP_MAXIMA = {3: 9, 4: 20, 5: 45, 6: 112}

# Table 1 cells quoted in the paper, keyed by (q, m).  The paper's cells sit
# 0.001-0.002 above log_q(min h) recomputed at full precision, so printed
# cells must equal the recomputation and lie within 0.002 of these.
TABLE1_PUBLISHED = {(3, 3): ".923", (2, 4): ".813", (3, 4): ".821", (11, 3): ".941"}
TABLE1_Q = (2, 3, 4, 5, 7, 8, 9, 11)
TABLE1_M = (3, 4, 5, 6, 7, 8)
TABLE2_PUBLISHED = [".500", ".500", ".334", ".334", ".250"]


@dataclass
class Outcome:
    code: int | None  # exit code, None when cli.main raised
    out: str
    err: str
    error: str | None  # the exception that escaped cli.main
    seconds: float


@dataclass
class Fault:
    what: str  # why the operation fails today
    shows: Callable[[Outcome], bool]  # True when the output is exactly that failure


@dataclass
class Op:
    kind: str  # construct, verify, bounds, exact, parallel, limited, greedy, check
    argv: list[str]
    check: Callable[[Outcome, dict], str | None]  # None when right; the dict is shared by one round's checks
    cell: str | None = None  # search cell, for node counts
    known_fault: Fault | None = None  # a fault it shows today; any other wrong output is wrong
    output: Path | None = None  # file the operation writes


@dataclass
class Workload:
    name: str
    fields: list[tuple[int, int]]  # (p, d) of every field it uses, built in set-up
    ops: list[Op]


# -- helpers -----------------------------------------------------------------------


def _expect_code(o: Outcome, code: int) -> str | None:
    if o.code != code:
        return f"exit {o.code}, expected {code}"
    return None


def _read_cert(path: Path) -> dict:
    doc = json.loads(path.read_text())
    doc["points"] = [tuple(int(t) for t in w.split()) for w in doc["witness"]]
    return doc


def _check_witness(doc: dict, n: int, q: int, m: int) -> str | None:
    p, d, mod = ind.parse_q_spec(doc["params"]["q_spec"])
    if (p**d, doc["params"]["n"], doc["params"]["m"]) != (q, n, m):
        return f"certificate params {doc['params']} do not match q={q} n={n} m={m}"
    pts = doc["points"]
    if doc["value"] != len(pts) or len(set(pts)) != len(pts):
        return f"value {doc['value']} but {len(set(pts))} distinct witness points"
    if any(len(x) != n or not all(0 <= c < q for c in x) for x in pts):
        return "witness point outside F_q^n"
    gf = ind.GF(p, d, mod)
    if not ind.m_general(gf, pts, m):
        return f"witness is not {m}-general"
    return None


def _upper_limit(n: int, q: int, m: int) -> int:
    limit = ind.integer_cap(n, q, m) if m >= 4 else q**n
    if q == 3 and m == 3 and n in CAP_MAXIMA:
        limit = min(limit, CAP_MAXIMA[n])
    return limit


def _verdicts(out: str) -> dict[str, tuple[int, bool, int]]:
    found = {}
    for line in out.splitlines():
        mt = re.fullmatch(r"(geometric|arithmetic): (\d+) points, (NOT )?(\d+)-general", line)
        if mt:
            found[mt.group(1)] = (int(mt.group(2)), mt.group(3) is None, int(mt.group(4)))
    return found


# -- verify workload -----------------------------------------------------------------


def _moduli_table(root: Path) -> dict[tuple[int, int], tuple[int, ...]]:
    """The package's default moduli, read from its data file."""
    table = {}
    for line in (root / "src/mgeneral/data/moduli.txt").read_text().splitlines():
        if line.strip() and not line.startswith("#"):
            nums = [int(t) for t in line.split()]
            table[(nums[0], nums[1])] = tuple(nums[2:])
    return table


def _verify_op(path: Path, oracle: str, size: int, m: int, general: bool) -> Op:
    oracles = ["geometric", "arithmetic"] if oracle == "both" else [oracle]

    def check(o: Outcome, state: dict) -> str | None:
        bad = _expect_code(o, 0 if general else 1)
        if bad:
            return bad
        got = _verdicts(o.out)
        want = {name: (size, general, m) for name in oracles}
        if got != want:
            return f"verdicts {got}, expected {want}"
        return None

    return Op("verify", ["verify", str(path), "--oracle", oracle], check)


def _construct_op(path: Path, n: int, expected: list[tuple]) -> Op:
    def check(o: Outcome, state: dict) -> str | None:
        bad = _expect_code(o, 0)
        if bad:
            return bad
        spec, fn, fm, pts = ind.read_set_text(path.read_text())
        if (spec, fn, fm) != ("2^1:2", n, 4):
            return f"header {spec} {fn} {fm}"
        if len(pts) != 2 ** (n // 2):
            return f"{len(pts)} points, expected {2 ** (n // 2)}"
        if sorted(pts) != expected:
            return "points differ from the independently built cube graph"
        return None

    return Op("construct", ["construct", "--n", str(n), "-o", str(path)], check, output=path)


def _write_pair(work: Path, name: str, spec: str, n: int, m: int, points, gf) -> tuple[Path, Path, int]:
    """Write a positive set and its late-violation negative; returns the
    two paths and the negative's size."""
    if not ind.m_general(gf, points, m):
        raise AssertionError(f"{name}: generated set is not {m}-general")
    x, dep = ind.late_violation(gf, points, m)
    if ind.independent(gf, sorted(dep)):
        raise AssertionError(f"{name}: built dependency is independent")
    pos, neg = work / f"{name}.txt", work / f"{name}-neg.txt"
    pos.write_text(ind.set_text(spec, n, m, points, f"benchmark input {name}"))
    neg.write_text(ind.set_text(spec, n, m, list(points) + [x], f"{name} plus {x}"))
    return pos, neg, len(points) + 1


def _bounds_op(q: int, m: int, ns: list[int], csv: bool = False, known_fault: Fault | None = None) -> Op:
    argv = ["bounds", "--q", str(q), "--m", str(m), "--n", *map(str, ns)] + (["--csv"] if csv else [])

    def expected(n: int) -> dict[str, float | None]:
        k = m // 2
        row: dict[str, float | None] = dict.fromkeys(
            ["main", "refined", "mu_main", "bennett", "t_star", "mu_bennett"]
        )
        if m >= 4:
            row.update(main=ind.counting_bound(n, q, m), refined=ind.refined_real(n, q, m), mu_main=1 / k)
        if ind.bennett_applies(q, m) and n >= m - 2:
            b, t = ind.bennett(n, q, m)
            row.update(bennett=b, t_star=t, mu_bennett=ind.mu_bennett(q, m))
        return row

    def compare(n: int, got: dict[str, str | None]) -> str | None:
        for key, want in expected(n).items():
            text = got.get(key)
            if want is None:
                if text not in (None, "NA"):
                    return f"n={n} {key}: printed {text}, expected nothing"
            elif text is None or text == "NA":
                return f"n={n} {key}: missing"
            elif not ind.matches_6(text, want):
                return f"n={n} {key}: printed {text}, independent {want:.9g}"
        return None

    labels = {
        "counting bound": "main",
        "refined bound": "refined",
        "mu upper": "mu_main",
        "bennett bound": "bennett",
        "mu bennett": "mu_bennett",
    }

    def check(o: Outcome, state: dict) -> str | None:
        bad = _expect_code(o, 0)
        if bad:
            return bad
        rows: dict[int, dict[str, str | None]] = {}
        lines = o.out.splitlines()
        if csv:
            if lines[:2] != ["format=1", "q,m,n,k,main,refined,bennett,t_star,mu_main,mu_bennett"]:
                return "bad CSV header"
            for line in lines[2:]:
                cells = line.split(",")
                if [int(c) for c in cells[:2]] != [q, m] or int(cells[3]) != m // 2:
                    return f"bad CSV row {line}"
                keys = ["main", "refined", "bennett", "t_star", "mu_main", "mu_bennett"]
                rows[int(cells[2])] = dict(zip(keys, cells[4:]))
        else:
            current = None
            for line in lines:
                head = re.fullmatch(r"n=(\d+) q=(\d+) m=(\d+) k=(\d+)", line)
                if head:
                    if [int(g) for g in head.groups()[1:]] != [q, m, m // 2]:
                        return f"bad row header {line}"
                    current = rows.setdefault(int(head.group(1)), {})
                    continue
                val = re.match(r"\s+([a-z ]+?)\s*: (\S+)(?:\s+\(t\* = (\S+)\))?", line)
                if val and current is not None and val.group(1) in labels:
                    current[labels[val.group(1)]] = val.group(2)
                    if val.group(3):
                        current["t_star"] = val.group(3)
        if sorted(rows) != sorted(set(ns)):
            return f"rows for n={sorted(rows)}, expected {sorted(set(ns))}"
        for n in ns:
            bad = compare(n, rows[n])
            if bad:
                return bad
        return None

    return Op("bounds", argv, check, known_fault=known_fault)


def _table_op(which: int) -> Op:
    def check(o: Outcome, state: dict) -> str | None:
        bad = _expect_code(o, 0)
        if bad:
            return bad
        lines = o.out.splitlines()
        if which == 2:
            got = [ln.split() for ln in lines[1:]]
            want = [[str(m), ind.table2_cell(m)] for m in range(4, 9)]
            if got != want or [c for _, c in want] != TABLE2_PUBLISHED:
                return f"table 2 {got}, expected {want}"
            return None
        for m, line in zip(TABLE1_M, lines[1:]):
            if int(line[:4]) != m:
                return f"table 1 row {line!r}"
            for i, q in enumerate(TABLE1_Q):
                cell = line[4 + 6 * i : 9 + 6 * i].strip()
                want = ind.table1_cell(q, m) if ind.bennett_applies(q, m) else ""
                if cell != want:
                    return f"table 1 (m={m}, q={q}): printed {cell!r}, independent {want!r}"
                published = TABLE1_PUBLISHED.get((q, m))
                if published and abs(float(cell) - float(published)) > 0.002 + 1e-9:
                    return f"table 1 (m={m}, q={q}): {cell}, published {published}"
        if len(lines) != 1 + len(TABLE1_M):
            return f"table 1 has {len(lines)} lines"
        return None

    return Op("bounds", ["table", "--which", str(which)], check)


def verify_workload(root: Path, work: Path, seed: int) -> Workload:
    rng = random.Random(f"verify:{seed}")
    moduli = _moduli_table(root)
    ops: list[Op] = []
    f2 = ind.GF(2, 1, (0, 1))

    # Sidon constructions: both oracles up to 64 points, the pair-XOR
    # fast path alone on 1024 and 2048 points.
    for n, oracle in [(8, "both"), (10, "both"), (12, "both"), (20, "geometric"), (22, "geometric")]:
        pts = ind.cube_graph(n // 2, moduli[(2, n // 2)])
        out = work / f"sidon{n}.txt"
        ops.append(_construct_op(out, n, pts))
        _, neg, neg_size = _write_pair(work, f"sidon{n}", "2^1:2", n, 4, pts, f2)
        ops.append(_verify_op(out, oracle, len(pts), 4, True))
        ops.append(_verify_op(neg, oracle, neg_size, 4, False))

    # Seeded sets over other fields, fixed sizes so the cost does not depend
    # on the seed: caps (m = 3) and 4-general sets over GF(4), GF(5), GF(9).
    for name, q, n, m, size in [
        ("cap5", 3, 5, 3, 30),
        ("cap6", 3, 6, 3, 56),
        ("gf4n4", 4, 4, 4, 9),
        ("gf5n4", 5, 4, 4, 10),
        ("gf9n3", 9, 3, 4, 7),
    ]:
        gf = ind.prime_power_field(q)
        pts = ind.random_m_general(gf, n, m, size, rng)
        spec = ind.q_spec(gf.p, gf.d, gf.modulus)
        pos, neg, neg_size = _write_pair(work, name, spec, n, m, pts, gf)
        ops.append(_verify_op(pos, "both", size, m, True))
        ops.append(_verify_op(neg, "both", neg_size, m, False))

    # Bounds and tables: a fixed grid plus one seeded dimension per row.
    for q, m, ns in [
        (2, 4, [6, 8, 16, 32, 64]),
        (3, 3, [2, 4, 8]),
        (3, 4, [4, 8, 12]),
        (4, 4, [3, 6, 9]),
        (5, 6, [4, 8, 16]),
        (7, 8, [6, 12]),
        (8, 5, [5, 10]),
        (9, 5, [4, 8]),
        (11, 3, [3, 5]),
    ]:
        ns = ns + [rng.choice([x for x in range(max(1, m - 2), 60) if x not in ns])]
        ops.append(_bounds_op(q, m, ns))
        ops.append(_bounds_op(q, m, ns, csv=True))
    ops.append(_table_op(1))
    ops.append(_table_op(2))
    ops.append(_bounds_op(9, 5, [2, 4, 8], known_fault=Fault(
        "README example: the n=2 row (n < m-2) raises instead of printing NA, exit 2",
        lambda o: o.code == 2 and o.out == "" and o.error is None,
    )))
    ops.append(_bounds_op(2, 4, [1100], known_fault=Fault(
        "float(q) ** n overflows in refined_bound; OverflowError escapes cli.main",
        lambda o: o.error is not None and o.error.startswith("OverflowError"),
    )))

    fields = [(2, 1), (2, 4), (2, 5), (2, 6), (2, 10), (2, 11),  # set files, constructions
              (3, 1), (2, 2), (5, 1), (3, 2),  # seeded sets
              (7, 1), (2, 3), (11, 1)]  # the rest of the bounds grid
    return Workload("verify", fields, ops)


# -- search workloads -----------------------------------------------------------------


def _exact_op(work: Path, cell: str, n: int, q: int, m: int, workers: int = 1) -> Op:
    path = work / f"{cell}.json"
    argv = ["search", "--n", str(n), "--q", str(q), "--m", str(m), "--max-seconds", NEVER, "-o", str(path)]
    if workers > 1:
        argv += ["--workers", str(workers)]
    base = cell[: -len(f"w{workers}")] if workers > 1 else cell

    def check(o: Outcome, state: dict) -> str | None:
        bad = _expect_code(o, 0)
        if bad:
            return bad
        doc = _read_cert(path)
        if doc["exact"] is not True or doc["value"] != EXACT_MAXIMA[base]:
            return f"value {doc['value']} exact={doc['exact']}, expected {EXACT_MAXIMA[base]} exact"
        bad = _check_witness(doc, n, q, m)
        if bad:
            return bad
        seen = state.setdefault("witness", {})
        if workers > 1 and seen.get(base) != doc["points"]:
            return f"witness differs from the 1-worker run of {base}"
        seen[base] = doc["points"]
        return None

    return Op("parallel" if workers > 1 else "exact", argv, check, cell=cell, output=path)


def _limited_op(work: Path, cell: str, n: int, q: int, m: int, max_nodes: int) -> Op:
    path = work / f"{cell}.json"
    argv = ["search", "--n", str(n), "--q", str(q), "--m", str(m), "--max-nodes", str(max_nodes),
            "--max-seconds", NEVER, "-o", str(path)]

    def check(o: Outcome, state: dict) -> str | None:
        bad = _expect_code(o, 3)
        if bad:
            return bad
        doc = _read_cert(path)
        if doc["exact"] is not False:
            return "node-limited cell reported exact"
        if doc["value"] > _upper_limit(n, q, m):
            return f"value {doc['value']} above the upper limit {_upper_limit(n, q, m)}"
        return _check_witness(doc, n, q, m)

    return Op("limited", argv, check, cell=cell, output=path)


def _greedy_op(work: Path, name: str, n: int, q: int, m: int, seed: int, restarts: int) -> Op:
    path = work / f"{name}.json"
    argv = ["search", "--n", str(n), "--q", str(q), "--m", str(m), "--greedy",
            "--seed", str(seed), "--restarts", str(restarts), "-o", str(path)]

    def check(o: Outcome, state: dict) -> str | None:
        bad = _expect_code(o, 0)
        if bad:
            return bad
        text = path.read_text()
        doc = _read_cert(path)
        if (doc["seed"], doc["restarts"], doc["exact"]) != (seed, restarts, False):
            return f"seed/restarts/exact echoed as {doc['seed']}/{doc['restarts']}/{doc['exact']}"
        if doc["value"] > _upper_limit(n, q, m):
            return f"value {doc['value']} above the upper limit {_upper_limit(n, q, m)}"
        bad = _check_witness(doc, n, q, m)
        if bad:
            return bad
        gf = ind.GF(*ind.parse_q_spec(doc["params"]["q_spec"]))
        extra = ind.addable_points(gf, n, doc["points"], m)
        if extra:
            return f"greedy witness not inclusion-maximal: {extra[0]} can be added"
        seen = state.setdefault("greedy", {})
        if seen.setdefault((n, q, m, seed, restarts), text) != text:
            return "same seed gave a different certificate"
        return None

    return Op("greedy", argv, check, output=path)


def _reject_restarts_op(work: Path) -> Op:
    path = work / "restarts0.json"
    argv = ["search", "--n", "8", "--q", "2", "--m", "4", "--greedy", "--restarts", "0", "-o", str(path)]

    def check(o: Outcome, state: dict) -> str | None:
        return _expect_code(o, 2)

    def shows(o: Outcome) -> bool:
        return o.code == 0 and path.exists() and json.loads(path.read_text())["value"] == 0

    fault = Fault("--restarts 0 writes a value-0 certificate and exits 0", shows)
    return Op("greedy", argv, check, known_fault=fault, output=path)


def _check_op(cert: Path) -> Op:
    def check(o: Outcome, state: dict) -> str | None:
        bad = _expect_code(o, 0)
        if bad:
            return bad
        if not o.out.startswith("certificate VALID"):
            return f"check printed {o.out.strip()!r}"
        return None

    return Op("check", ["check", str(cert)], check)


def _with_checks(ops: list[Op]) -> list[Op]:
    """Append a `check` of every certificate the search operations write."""
    certs = [op.output for op in ops if op.output is not None and op.known_fault is None]
    return ops + [_check_op(c) for c in dict.fromkeys(certs)]


def sidon_workload(root: Path, work: Path, seed: int) -> Workload:
    rng = random.Random(f"search-sidon:{seed}")
    ops = [
        _exact_op(work, "q2n4m4", 4, 2, 4),
        _exact_op(work, "q2n5m4", 5, 2, 4),
        _exact_op(work, "q2n5m4w2", 5, 2, 4, workers=2),
        _limited_op(work, "q2n6m4lim", 6, 2, 4, 200_000),
    ]
    # At n = 11, 12 one restart reaches 40 and 52 points only 6-7% of the
    # time; 40 restarts make those sizes, and so the cost of checking the
    # witness, the same for most seeds.
    for n in range(8, 13):
        ops.append(_greedy_op(work, f"greedy-q2n{n}", n, 2, 4, rng.randrange(1 << 30), 8 if n < 11 else 40))
    ops.append(_reject_restarts_op(work))
    # the same seed again: the certificate must repeat byte for byte
    again = _greedy_op(work, "greedy-q2n10-again", 10, 2, 4, _argv_seed(ops[-4]), 8)
    return Workload("search-sidon", [(2, 1)], _with_checks(ops) + [again])


def generic_workload(root: Path, work: Path, seed: int) -> Workload:
    rng = random.Random(f"search-generic:{seed}")
    # The exact q3n3m3 cell takes about 17 s, too long to repeat within a
    # run; the workload spends a node budget on it, and probes.py runs it to
    # exact=True.
    ops = [
        _limited_op(work, "q3n3m3lim", 3, 3, 3, 2_000),
        _exact_op(work, "q5n2m3", 2, 5, 3),
        _exact_op(work, "q3n3m4", 3, 3, 4),
        _exact_op(work, "q9n2m4", 2, 9, 4),
        _exact_op(work, "q3n3m4w2", 3, 3, 4, workers=2),
        _limited_op(work, "q3n4m3lim", 4, 3, 3, 60),
        _greedy_op(work, "greedy-q3n5-a", 5, 3, 3, rng.randrange(1 << 30), 1),
        _greedy_op(work, "greedy-q3n5-b", 5, 3, 3, rng.randrange(1 << 30), 1),
    ]
    again = _greedy_op(work, "greedy-q3n5-again", 5, 3, 3, _argv_seed(ops[-1]), 1)
    return Workload("search-generic", [(3, 1), (5, 1), (3, 2)], _with_checks(ops) + [again])


def _argv_seed(op: Op) -> int:
    return int(op.argv[op.argv.index("--seed") + 1])


WORKLOADS = {
    "verify": verify_workload,
    "search-sidon": sidon_workload,
    "search-generic": generic_workload,
}

# The search cells, for per-cell node counts.
CELLS = ["q2n4m4", "q2n5m4", "q2n5m4w2", "q2n6m4lim",
         "q3n3m3lim", "q5n2m3", "q3n3m4", "q9n2m4", "q3n3m4w2", "q3n4m3lim"]

