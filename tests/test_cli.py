import json
import os
import random
import resource
import subprocess
import sys
import time

import pytest

import mgeneral
from mgeneral import cli, search
from mgeneral.affine import read_point_set


def run(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


@pytest.fixture
def f5_line_file(tmp_path):
    path = tmp_path / "set_F5_124.txt"
    path.write_text("format=1\n5^1:5 1 3\n1\n2\n4\n")
    return str(path)


def test_verify_not_3general_both_oracles(capsys, f5_line_file):
    code, out, err = run(capsys, "verify", f5_line_file, "-m", "3", "--oracle", "both")
    assert code == 1
    assert "NOT 3-general" in out
    assert out.count("NOT 3-general") == 2


def test_verify_uses_file_m_by_default(capsys, f5_line_file):
    code, out, _ = run(capsys, "verify", f5_line_file)
    assert code == 1


def test_verify_single_oracle(capsys, f5_line_file):
    code, out, _ = run(capsys, "verify", f5_line_file, "--oracle", "geometric")
    assert code == 1 and "arithmetic:" not in out


def test_verify_small_set_runs_both_oracles(capsys, tmp_path):
    path = tmp_path / "pair.txt"
    path.write_text("format=1\n3^1:3 2 3\n0 0\n1 1\n")
    code, out, _ = run(capsys, "verify", str(path))
    assert code == 0
    assert out == "geometric: 2 points, 3-general\narithmetic: 2 points, 3-general\n"


def test_verify_arithmetic_below_m(capsys, tmp_path):
    # three points of F_3^3 with m = 4: the arithmetic oracle decides them too
    path = tmp_path / "three.txt"
    path.write_text("format=1\n3^1:3 3 4\n0 0 0\n1 0 0\n0 1 0\n")
    code, out, err = run(capsys, "verify", str(path), "--oracle", "arithmetic")
    assert (code, out, err) == (0, "arithmetic: 3 points, 4-general\n", "")
    path.write_text("format=1\n3^1:3 3 4\n0 0 0\n1 0 0\n2 0 0\n")  # a line
    code, out, _ = run(capsys, "verify", str(path), "--oracle", "arithmetic")
    assert (code, out) == (1, "arithmetic: 3 points, NOT 4-general\n")


def test_check_runs_arithmetic_on_witness_below_m(capsys, tmp_path, monkeypatch):
    # the q = 9, n = 2, m = 4 maximum has 3 < m points; check still asks both oracles
    cert_path = tmp_path / "q9.json"
    code, _, _ = run(capsys, "search", "--n", "2", "--q", "9", "--m", "4", "-o", str(cert_path))
    assert code == 0 and len(json.loads(cert_path.read_text())["witness"]) == 3
    monkeypatch.setattr(search, "is_m_general_arithmetic", lambda A, m: False)
    code, out, _ = run(capsys, "check", str(cert_path))
    assert code == 1
    assert out.startswith("certificate INVALID")


def test_verify_disagreement_tripwire(capsys, f5_line_file, monkeypatch):
    monkeypatch.setattr(cli, "is_m_general_arithmetic", lambda A, m: True)
    code, out, err = run(capsys, "verify", f5_line_file)
    assert code == 1
    assert "ORACLE DISAGREEMENT" in err


def test_construct_verify_round_trip(capsys, tmp_path):
    setfile = tmp_path / "c6.txt"
    code, _, err = run(capsys, "construct", "--n", "6", "-o", str(setfile))
    assert code == 0
    ps, m = read_point_set(setfile)
    assert len(ps) == 8 and m == 4
    code, out, _ = run(capsys, "verify", str(setfile))
    assert code == 0
    assert "8 points, 4-general" in out


def test_construct_odd_n(capsys, tmp_path):
    setfile = tmp_path / "c7.txt"
    code, _, _ = run(capsys, "construct", "--n", "7", "-o", str(setfile))
    assert code == 0
    ps, _ = read_point_set(setfile)
    assert len(ps) == 8 and ps.n == 7


def test_table2_exact_output(capsys):
    code, out, _ = run(capsys, "table", "--which", "2")
    assert code == 0
    cells = [line.split()[1] for line in out.strip().splitlines()[1:]]
    assert cells == [".500", ".500", ".334", ".334", ".250"]


def test_table1_output_shape(capsys):
    code, out, _ = run(capsys, "table", "--which", "1")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 7  # header + m = 3..8
    assert ".811" in out  # the q=2, m=4 cell as recomputed


def test_bounds_csv(capsys):
    code, out, _ = run(capsys, "bounds", "--q", "3", "--m", "4", "--n", "2", "4", "--csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "format=1"
    assert lines[1].startswith("q,m,n,k,")
    assert len(lines) == 4


def test_bounds_human_readable(capsys):
    code, out, _ = run(capsys, "bounds", "--q", "2", "--m", "4", "--n", "6")
    assert code == 0
    assert "counting bound" in out and "bennett bound" in out


def test_bounds_q_spec_forms(capsys):
    code, out, _ = run(capsys, "bounds", "--q", "2^2", "--m", "4", "--n", "3", "--csv")
    assert code == 0
    assert out.splitlines()[2].startswith("4,4,3,")


def test_bounds_bad_q(capsys):
    code, _, err = run(capsys, "bounds", "--q", "12", "--m", "4", "--n", "1")
    assert code == 2
    assert "prime power" in err


def test_search_writes_certificate_and_check(capsys, tmp_path):
    cert_path = tmp_path / "cert.json"
    code, _, err = run(capsys, "search", "--n", "2", "--q", "3", "--m", "3", "-o", str(cert_path))
    assert code == 0
    assert "value=4 exact=True" in err
    code, out, _ = run(capsys, "check", str(cert_path))
    assert code == 0
    assert "VALID" in out


def test_search_greedy_and_check(capsys, tmp_path):
    cert_path = tmp_path / "g.json"
    code, _, _ = run(
        capsys, "search", "--n", "3", "--q", "2", "--m", "4",
        "--greedy", "--seed", "5", "--restarts", "4", "-o", str(cert_path),
    )
    assert code == 0
    doc = json.loads(cert_path.read_text())
    assert doc["seed"] == 5 and doc["restarts"] == 4 and doc["exact"] is False
    code, out, _ = run(capsys, "check", str(cert_path))
    assert code == 0


def test_search_limits_exit_code(capsys, tmp_path):
    cert_path = tmp_path / "partial.json"
    code, _, err = run(
        capsys, "search", "--n", "4", "--q", "3", "--m", "3",
        "--max-nodes", "40", "-o", str(cert_path),
    )
    assert code == 3
    assert "exact=False" in err


@pytest.mark.parametrize("argv, expected, value, nodes", [
    (["--n", "10", "--q", "2", "--m", "3"], 0, 1024, 1023),
    (["--n", "11", "--q", "2", "--m", "3", "--max-nodes", "1500"], 3, 1502, 1501),
    (["--n", "10", "--q", "3", "--m", "3", "--max-nodes", "1100"], 3, 1032, 1101),
], ids=["q2n10m3", "q2n11m3-nodes", "q3n10m3-nodes"])
def test_deep_search_exits_cleanly(capsys, tmp_path, argv, expected, value, nodes):
    """A search whose set grows past a thousand points, deeper than the
    interpreter's call stack allows, ends on exhaustion or its node budget."""
    cert_path = tmp_path / "deep.json"
    code, _, err = run(capsys, "search", *argv, "-o", str(cert_path))
    assert code == expected, err
    doc = json.loads(cert_path.read_text())
    assert (doc["value"], doc["exact"], doc["nodes_explored"]) == (value, expected == 0, nodes)


@pytest.mark.parametrize("n, q, m, value, nodes", [
    (1, 2048, 3, 2, 0),
    (2, 11, 3, 12, 449),
    (2, 16, 3, 18, 250),
    (3, 7, 5, 4, 2),
    (5, 3, 7, 6, 4),
], ids=["q2048n1m3", "q11n2m3", "q16n2m3", "q7n3m5", "q3n5m7"])
def test_theorem_cap_cells_are_fast(capsys, tmp_path, n, q, m, value, nodes):
    """The dimension cap (m = n + 2) and the arc cap (n = 2, m = 3) make
    these cells exact in a few nodes.  With the counting cap alone the
    first took 10 s and the others were not exact within 20 s."""
    cert_path = tmp_path / "cert.json"
    start = time.perf_counter()
    code, _, err = run(capsys, "search", "--n", str(n), "--q", str(q), "--m", str(m), "-o", str(cert_path))
    assert time.perf_counter() - start < 2
    assert code == 0, err
    doc = json.loads(cert_path.read_text())
    assert (doc["value"], doc["exact"], doc["nodes_explored"]) == (value, True, nodes)
    code, out, _ = run(capsys, "check", str(cert_path))
    assert code == 0 and "certificate VALID" in out


@pytest.mark.parametrize("n, q_spec, m, cap", [(2, "5^1:5", 3, 6), (3, "3^1:3", 5, 4)],
                         ids=["arc", "dimension"])
def test_check_refuses_a_value_above_a_theorem_cap(capsys, tmp_path, monkeypatch, n, q_spec, m, cap):
    """With both oracles made to accept any set, the cap alone decides:
    cap distinct points pass, cap + 1 are INVALID."""
    monkeypatch.setattr(search, "is_m_general", lambda ps, m: True)
    monkeypatch.setattr(search, "is_m_general_arithmetic", lambda ps, m: True)
    q = int(q_spec.split("^")[0])
    points = [" ".join(str(i // q**j % q) for j in range(n)) for i in range(cap + 1)]
    for size, expected in [(cap, 0), (cap + 1, 1)]:
        path = tmp_path / f"cert{size}.json"
        path.write_text(json.dumps({
            "format": 1, "params": {"n": n, "q_spec": q_spec, "m": m},
            "value": size, "exact": False, "witness": points[:size], "nodes_explored": 0,
        }))
        code, out, _ = run(capsys, "check", str(path))
        assert code == expected
        assert ("certificate VALID" if expected == 0 else "certificate INVALID") in out


def test_check_corrupted_certificate(capsys, tmp_path):
    cert_path = tmp_path / "cert.json"
    run(capsys, "search", "--n", "2", "--q", "3", "--m", "3", "-o", str(cert_path))
    doc = json.loads(cert_path.read_text())
    doc["witness"][0] = "1 1"
    cert_path.write_text(json.dumps(doc))
    code, out, _ = run(capsys, "check", str(cert_path))
    assert code == 1
    assert "INVALID" in out


def test_check_malformed_certificate(capsys, tmp_path):
    path = tmp_path / "junk.json"
    path.write_text("{oops")
    code, _, err = run(capsys, "check", str(path))
    assert code == 2
    assert "error" in err


def test_check_absurd_n_is_fast(capsys, tmp_path):
    # the cap test never raises q to the power n = 10^7 for an empty witness
    path = tmp_path / "huge.json"
    path.write_text(json.dumps({
        "format": 1, "params": {"n": 10**7, "q_spec": "3^2:10", "m": 4},
        "value": 0, "exact": False, "witness": [], "nodes_explored": 0,
    }))
    start = time.perf_counter()
    code, out, _ = run(capsys, "check", str(path))
    assert time.perf_counter() - start < 2
    assert code == 0
    assert "certificate VALID" in out


def test_output_to_stdout_or_file(capsys, tmp_path):
    for argv in (["construct", "--n", "6"], ["search", "--n", "2", "--q", "3", "--m", "3"]):
        code, out, _ = run(capsys, *argv)
        assert code == 0
        path = tmp_path / "out.txt"
        code, again, _ = run(capsys, *argv, "-o", str(path))
        assert code == 0 and again == ""
        assert path.read_text() == out
        code, _, err = run(capsys, *argv, "-o", str(tmp_path / "missing" / "out.txt"))
        assert code == 2 and "error" in err


def test_byte_identical_reruns(capsys, tmp_path):
    outputs = []
    for name in ("a.json", "b.json"):
        path = tmp_path / name
        run(capsys, "search", "--n", "2", "--q", "3", "--m", "3", "-o", str(path))
        outputs.append(path.read_bytes())
    assert outputs[0] == outputs[1]
    tables = []
    for _ in range(2):
        _, out, _ = run(capsys, "table", "--which", "1")
        tables.append(out)
    assert tables[0] == tables[1]


def test_construct_with_custom_modulus_table(capsys, tmp_path):
    # x^3 + x^2 + 1 instead of the default x^3 + x + 1 for GF(8)
    table = tmp_path / "moduli.txt"
    table.write_text("2 3 1 0 1 1\n")
    setfile = tmp_path / "c6.txt"
    code, _, _ = run(
        capsys, "--moduli", str(table), "construct", "--n", "6", "-o", str(setfile)
    )
    assert code == 0
    assert "modulus_id=13" in setfile.read_text()
    code, _, _ = run(capsys, "verify", str(setfile))
    assert code == 0


def test_moduli_override_lasts_one_call(capsys, tmp_path):
    table = tmp_path / "moduli.txt"
    table.write_text("2 3 1 0 1 1\n")
    code, out, _ = run(capsys, "--moduli", str(table), "construct", "--n", "6")
    assert code == 0 and "modulus_id=13" in out
    code, out, _ = run(capsys, "construct", "--n", "6")
    assert code == 0 and "modulus_id=11" in out
    code, out, _ = run(capsys, "search", "--n", "1", "--q", "8", "--m", "3")
    assert code == 0 and json.loads(out)["params"]["q_spec"] == "2^3:11"


def test_verify_m_above_n_prints_no_note(capsys, tmp_path):
    # m = n + 1 is in range for both oracles, with no caveat printed
    path = tmp_path / "s.txt"
    path.write_text("format=1\n2^1:2 3 4\n0 0 0\n0 0 1\n0 1 0\n1 0 0\n")
    code, out, _ = run(capsys, "verify", str(path))
    assert code == 0
    assert out == "geometric: 4 points, 4-general\narithmetic: 4 points, 4-general\n"


def test_search_greedy_rejects_zero_restarts(capsys, tmp_path):
    cert_path = tmp_path / "g.json"
    code, _, err = run(
        capsys, "search", "--n", "8", "--q", "2", "--m", "4",
        "--greedy", "--restarts", "0", "-o", str(cert_path),
    )
    assert code == 2
    assert "restarts" in err
    assert not cert_path.exists()


def test_bounds_readme_example_prints_na(capsys):
    # n = 2 < m - 2: Bennett's bound does not apply to that row
    code, out, _ = run(capsys, "bounds", "--q", "9", "--m", "5", "--n", "2", "4", "8")
    assert code == 0
    rows = out.split("n=")[1:]
    assert [r.split()[0] for r in rows] == ["2", "4", "8"]
    assert "bennett bound  : NA" in rows[0] and "mu bennett     : NA" in rows[0]
    assert "counting bound : 6.80336" in rows[0]
    assert all("bennett bound  : NA" not in r for r in rows[1:])
    code, out, _ = run(capsys, "bounds", "--q", "9", "--m", "5", "--n", "2", "4", "8", "--csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[2].split(",")[6:] == ["NA", "NA", "0.5", "NA"]
    assert "NA" not in lines[3] and "NA" not in lines[4]


def test_construct_n16_verify_both_oracles(capsys, tmp_path):
    setfile = tmp_path / "c16.txt"
    code, _, _ = run(capsys, "construct", "--n", "16", "-o", str(setfile))
    assert code == 0
    code, out, _ = run(capsys, "verify", str(setfile))
    assert code == 0
    assert "geometric: 256 points, 4-general" in out
    assert "arithmetic: 256 points, 4-general" in out


def test_bounds_huge_n_prints_numbers(capsys):
    code, out, _ = run(capsys, "bounds", "--q", "2", "--m", "4", "--n", "1100", "--csv")
    assert code == 0
    row = out.splitlines()[2].split(",")
    values = [float(c) for c in row[4:]]
    assert all(0 < v < float("inf") for v in values)
    assert values[1] == pytest.approx(2**550 * 2**0.5, rel=1e-5)  # C(x, 2) = 2^1100


def test_cli_fuzz_exit_codes(capsys, tmp_path):
    """Random bounds, table and search command lines end in a documented exit
    code, never in an exception escaping cli.main."""
    rng = random.Random(2002)
    good_qs = ["2", "3", "4", "5", "9", "2^2", "3^1:3"]

    def q_arg(extra=()):
        return rng.choice(["6", "1", "0", "-3", "x", "2^2:7"] if rng.random() < 0.2 else good_qs + list(extra))

    cert = str(tmp_path / "c.json")
    for _ in range(200):
        kind = rng.choice(["bounds", "table", "search", "search"])
        if kind == "bounds":
            ns = [str(rng.choice([rng.randint(-2, 40), rng.randint(40, 5000), 10 ** rng.randint(4, 7)]))
                  for _ in range(rng.randint(1, 3))]
            argv = ["bounds", "--q", q_arg(["11", "256", "1024"]), "--m", str(rng.randint(-1, 14)), "--n", *ns]
            if rng.random() < 0.5:
                argv.append("--csv")
        elif kind == "table":
            argv = ["table", "--which", rng.choice(["1", "2", "3", "0", "x"])]
        else:
            n = rng.choice([-1, 0, 1, 2, 2, 3, 3])
            argv = ["search", "--n", str(n), "--q", q_arg(), "--m", str(rng.choice([1, 6, 3, 3, 4, 4, 5])),
                    "--max-nodes", str(rng.randint(-1, 40)), "--max-seconds", rng.choice(["0", "0.05", "-1"]), "-o", cert]
            if rng.random() < 0.4:
                argv += ["--greedy", "--seed", str(rng.randint(-5, 5)), "--restarts", str(rng.randint(-1, 3))]
            if rng.random() < 0.1:
                argv += ["--workers", str(rng.randint(0, 2))]
        try:
            code = cli.main(argv)
        except SystemExit as e:  # argparse rejects the command line
            code = e.code
        capsys.readouterr()
        assert code in (0, 1, 2, 3), argv


_CERT = ('{{"format": 1, "params": {{"n": {n}, "q_spec": "2^1:2", "m": {m}}}, "value": {value},'
         ' "exact": false, "witness": {witness}, "nodes_explored": 0}}')
_HUGE_N = 10**20
_INPUT = "{input}"
# a VALID certificate as it stands; each key added below breaks it
_ONE_POINT = _CERT.format(n=2, m=3, value=1, witness='["0 0"]')
_ZEROS = " 0" * 58
_THREE_IN_F3_60 = f"format=1\n3^1:3 60 50\n0 0{_ZEROS}\n1 0{_ZEROS}\n0 1{_ZEROS}\n"  # 0, e_1, e_2


def _plus(key: str, value: str) -> str:
    return f'{_ONE_POINT[:-1]}, "{key}": {value}}}'


@pytest.mark.parametrize("cert, argv, expected, message", [
    (_CERT.format(n=2, m=3, value=1, witness="[5]"), ["check"], 2, "malformed certificate"),
    (_CERT.format(n=2, m=3, value=1, witness="[[0, 0]]"), ["check"], 2, "malformed certificate"),
    (_CERT.format(n=2, m=3, value="1e400", witness='["0 0"]'), ["check"], 2, "malformed certificate"),
    (_CERT.format(n="1e400", m=3, value=1, witness='["0 0"]'), ["check"], 2, "malformed certificate"),
    (_CERT.format(n=2, m="1e400", value=1, witness='["0 0"]'), ["check"], 2, "malformed certificate"),
    (_CERT.format(n=_HUGE_N, m=4, value=0, witness="[]"), ["check"], 0, None),
    (f"format=1\n2^1:2 {_HUGE_N} 4\n", ["verify"], 0, None),
    (None, ["bounds", "--q", "65536", "--m", "4", "--n", "3"], 0, None),
    (None, ["bounds", "--q", "2", "--m", "342", "--n", "4"], 0, None),
    (None, ["bounds", "--q", "3", "--m", "100000", "--n", "3"], 0, None),
    (None, ["search", "--n", "4", "--q", "3", "--m", "3", "--max-nodes", "1000", "--max-seconds", "nan"], 2,
     "need max_seconds >= 0, got nan"),
    # each of these three is otherwise a VALID certificate once its field is coerced
    (_CERT.format(n=2, m=3, value=1.9, witness='["0 0"]'), ["check"], 2, "value must be int, got 1.9"),
    (_CERT.format(n=2, m=3, value=1, witness='["0 0"]').replace("false", '"false"'), ["check"], 2,
     "exact must be bool, got 'false'"),
    (_CERT.format(n=4.7, m=3, value=1, witness='["0 0 0 0"]'), ["check"], 2, "n must be int, got 4.7"),
    (None, ["search", "--n", "2", "--q", "2", "--m", "3", "--workers", "0"], 2, "need workers >= 1, got 0"),
    (None, ["search", "--n", "2", "--q", "2", "--m", "3", "--workers", "-1"], 2, "need workers >= 1, got -1"),
    (None, ["search", "--n", "2", "--q", "2^2^2", "--m", "3"], 2, "malformed q: '2^2^2'"),
    (None, ["search", "--n", "2", "--q", "x", "--m", "3"], 2, "malformed q: 'x'"),
    (None, ["bounds", "--q", "2^x", "--m", "4", "--n", "3"], 2, "malformed q: '2^x'"),
    (None, ["bounds", "--q", "x^2", "--m", "4", "--n", "3"], 2, "malformed q: 'x^2'"),
    (None, ["search", "--n", "2", "--q", "-3", "--m", "3"], 2,
     "q must be a prime power in [2, 65536], got -3"),
    ("2\n", ["--moduli", _INPUT, "search", "--n", "1", "--q", "8", "--m", "3"], 2,
     "modulus table: line 1: expected integers `p d c_0 ... c_d`, got '2'"),
    ("# fields\n2 3 x\n", ["--moduli", _INPUT, "search", "--n", "1", "--q", "8", "--m", "3"], 2,
     "modulus table: line 2: expected integers `p d c_0 ... c_d`, got '2 3 x'"),
    (None, ["search", "--n", "2", "--q", "3", "--m", "3", "--max-nodes", "-1"], 2,
     "need max_nodes >= 0, got -1"),
    ("format=1\n3^1:3 2 3\n0 0\n0 1\n0 1\n1 0\n", ["verify"], 2, "set file repeats point (0, 1)"),
    ("format=1\n# comment\n3^1:3 2 3\n0 0\n\n0 x\n", ["verify"], 2,
     "set file: line 6: expected integers, got '0 x'"),
    ("format=1\n3^1:3 2\n0 0\n", ["verify"], 2, "bad set file header: '3^1:3 2'"),
    (None, ["bounds", "--q", "2", "--m", "1", "--n", "3"], 2, "need m >= 3, got m=1"),
    (None, ["bounds", "--q", "2", "--m", "-1", "--n", "3"], 2, "need m >= 3, got m=-1"),
    (None, ["bounds", "--q", "3", "--m", "1", "--n", "3"], 2, "need m >= 3, got m=1"),
    (None, ["bounds", "--q", "3", "--m", "3", "--n", "-5"], 2, "need n >= 1, got n=-5"),
    (_ONE_POINT, ["check"], 0, None),
    (_THREE_IN_F3_60, ["verify"], 0, None),
    (_THREE_IN_F3_60, ["verify", "--oracle", "arithmetic"], 0, None),
    (_CERT.format(n=100_000, m=100_000, value=0, witness="[]"), ["check"], 0, None),
    ("[" * 100_000, ["check"], 2, "malformed certificate: maximum recursion depth exceeded"),
    (_ONE_POINT.replace('"format": 1', '"format": 2'), ["check"], 2, "unknown format 2, expected 1"),
    (_ONE_POINT.replace('"format": 1', '"format": true'), ["check"], 2, "unknown format True, expected 1"),
    (_ONE_POINT.replace('"format": 1', '"format": 1.0'), ["check"], 2, "unknown format 1.0, expected 1"),
    (_ONE_POINT.replace('"format": 1, ', ""), ["check"], 2, "malformed certificate: 'format'"),
    (_plus("reductions", '"abc"'), ["check"], 2, "reductions must be list of str, got 'abc'"),
    (_plus("seed", '"x"'), ["check"], 2, "seed must be int, got 'x'"),
    (_plus("prune_bound_used", '"x"'), ["check"], 2, "prune_bound_used must be float, got 'x'"),
    (_plus("toolchain", "[[1, 2]]"), ["check"], 2, "toolchain must be dict, got [[1, 2]]"),
], ids=["witness-int", "witness-list", "value-1e400", "n-1e400", "m-1e400", "check-huge-n",
        "verify-huge-n", "bounds-q65536", "bounds-m342", "bounds-m100000", "search-nan-seconds",
        "value-float", "exact-string", "n-float", "search-workers-0", "search-workers-negative",
        "search-q-two-carets", "search-q-word", "bounds-q-word-exponent", "bounds-q-word-base",
        "search-q-negative", "moduli-one-number", "moduli-word", "search-max-nodes-negative",
        "verify-repeated-point", "verify-non-integer", "verify-header-two-tokens", "bounds-q2-m1",
        "bounds-q2-m-negative", "bounds-q3-m1", "bounds-n-negative", "check-one-point",
        "verify-3-points-m50", "verify-arithmetic-3-points-m50", "check-empty-n-m-100000",
        "check-nested-json", "format-2", "format-true", "format-float", "format-missing",
        "reductions-string", "seed-string", "prune-bound-string", "toolchain-list"])
def test_edge_inputs_exit_cleanly(capsys, tmp_path, cert, argv, expected, message):
    """Malformed certificates (a key of the wrong JSON type, an unknown or
    missing format, JSON nested past the recursion limit), a huge n in sets
    and certificates, a large m over three points, bounds at
    extreme (q, m), a NaN time budget, a non-positive worker count, a
    negative node budget, a malformed q, a malformed modulus table, a set
    file with a repeated point, a non-integer coordinate or a short header
    and bounds at m < 3 or n < 1 for any q end in an exit code within 5 s,
    with no exception escaping cli.main, no value printed as inf and, on
    exit 2, an error naming the bad input.  The input file goes where argv
    has _INPUT, else last."""
    if cert is not None:
        path = tmp_path / "input"
        path.write_text(cert)
        if _INPUT not in argv:
            argv = [*argv, _INPUT]
        argv = [str(path) if a == _INPUT else a for a in argv]
    start = time.perf_counter()
    code, out, err = run(capsys, *argv)
    assert time.perf_counter() - start < 5
    assert code == expected, err
    assert "inf" not in out
    if message is not None:
        assert err.startswith("error: ") and message in err, err


def test_refined_bound_note_makes_no_claim(capsys):
    # for a large k the refined value (at least k - 1) exceeds the counting bound
    code, out, _ = run(capsys, "bounds", "--q", "3", "--m", "100000", "--n", "3")
    assert code == 0
    line = next(ln for ln in out.splitlines() if "refined bound" in ln)
    assert "tighter" not in line
    assert "largest x with L C(x, k) <= q^n" in line


_HUGE_D = "100000000000000000000"
_HUGE_P = "1000000000000000003"


def _limit_memory():
    resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))


@pytest.mark.parametrize("setfile, argv", [
    (None, ["bounds", "--q", "1000000007", "--m", "4", "--n", "3"]),
    (None, ["search", "--n", "4", "--q", f"2^{_HUGE_D}", "--m", "4"]),
    (None, ["construct", "--n", _HUGE_D]),
    (None, ["search", "--n", "2", "--q", f"{_HUGE_P}^1", "--m", "3"]),
    (f"2^{_HUGE_D}:3 4 4", ["verify"]),
    (f"{_HUGE_P}^1:{_HUGE_P} 2 3", ["verify"]),
    (None, ["search", "--n", _HUGE_D, "--q", "2", "--m", "4"]),
], ids=["bounds-huge-q", "search-huge-d", "construct-huge-n", "search-huge-p",
        "verify-huge-d", "verify-huge-p", "search-huge-n"])
def test_oversized_inputs_refused_at_once(tmp_path, setfile, argv):
    """A field or ambient too large to support is refused before its size
    is computed: exit 2 within seconds, in a process with 1 GiB of memory."""
    if setfile is not None:
        path = tmp_path / "set.txt"
        path.write_text(f"format=1\n{setfile}\n")
        argv = [*argv, str(path)]
    src = os.path.dirname(os.path.dirname(mgeneral.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    proc = subprocess.run([sys.executable, "-m", "mgeneral", *argv], capture_output=True,
                          text=True, timeout=10, env=env, preexec_fn=_limit_memory)
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr.startswith("error:")


# dataclasses, with the inspect it imports, and typing: no command needs them
_HEAVY = ("dataclasses", "inspect", "typing")


def test_commands_leave_multiprocessing_unimported(tmp_path):
    """import mgeneral and every command but a search with --workers >= 2
    leave multiprocessing unimported, and every command leaves out _HEAVY;
    -S keeps site .pth imports out."""
    src = os.path.dirname(os.path.dirname(mgeneral.__file__))
    script = (
        "import sys\n"
        f"sys.path.insert(0, {src!r})\n"
        "import mgeneral\n"
        "from mgeneral import cli\n"
        "codes = [cli.main(argv.split()) for argv in [\n"
        "    'construct --n 6 -o set.txt', 'verify set.txt', 'bounds --q 3 --m 4 --n 8',\n"
        "    'table --which 2', 'search --n 3 --q 3 --m 4 --workers 1 -o c.json', 'check c.json',\n"
        "    'search --n 3 --q 3 --m 3 --greedy --restarts 2 -o g.json', 'check g.json']]\n"
        f"print(codes, 'multiprocessing' in sys.modules, sorted(set({_HEAVY!r}) & set(sys.modules)))\n"
        "cli.main('search --n 3 --q 3 --m 4 --workers 2 -o c.json'.split())\n"
        f"print('multiprocessing' in sys.modules, sorted(set({_HEAVY!r}) & set(sys.modules)))\n"
    )
    proc = subprocess.run([sys.executable, "-I", "-S", "-c", script], cwd=tmp_path,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    *_, found, control = proc.stdout.splitlines()  # after the commands' own output
    assert found == f"{[0] * 8} False []"
    # the control: two workers start a helper, and import multiprocessing to do it
    assert control == f"{(os.cpu_count() or 1) > 1} []"


def test_import_leaves_json_and_resources_unimported(tmp_path):
    """import mgeneral and building a field from the shipped modulus table
    load neither json nor importlib.resources, nor any of _HEAVY; json comes
    with the first certificate written.  -S keeps site .pth imports out."""
    src = os.path.dirname(os.path.dirname(mgeneral.__file__))
    script = (
        "import sys\n"
        f"sys.path.insert(0, {src!r})\n"
        "import mgeneral\n"
        "mgeneral.make_field(3, 2)\n"
        f"print(sorted({{'json', 'importlib.resources', *{_HEAVY!r}}} & set(sys.modules)))\n"
        "from mgeneral import cli\n"
        "cli.main('search --n 2 --q 3 --m 3 -o c.json'.split())\n"
        "print('json' in sys.modules)\n"
    )
    proc = subprocess.run([sys.executable, "-I", "-S", "-c", script], cwd=tmp_path,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    *_, found, control = proc.stdout.splitlines()
    assert found == "[]"
    assert control == "True"  # the control: a certificate imports json
