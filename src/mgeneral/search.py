"""Exact and heuristic search for maximum m-general sets, with certificates.

The exact search is a depth-first branch and bound over points in canonical
order.  Symmetry reduction fixes the first point at the origin (translation
acts transitively and preserves m-generality) and grows sets only by points
greater than the last chosen, so every candidate set is enumerated once and
the first witness found at any size is the lexicographically least one.

Every engine keeps, at each depth, the points that can no longer join A as
one big-integer bitmask over all q^n point codes, and iterates the allowed
points above the last chosen one lowest bit first.  No rank test runs in
the search loop.

Pruning (both rules individually toggleable):
* abandon a branch when |A| plus the number of allowed candidates left
  cannot beat the best size found;
* once the best size reaches the refined counting bound's integer cap
  max{x : L C(x, k) <= q^n}, no larger set can exist and the search stops,
  still exact.

Blocked-flat kernel (every (q, m) but q = 2, m = 4): A + {p} is m-general
exactly when p lies in no affine hull of min(m-1, |A|) points of A.  When x
joins A, the update ORs in the hulls of {x} + T over the subsets T of A
with |T| <= m-2, enumerated as x + sum c_t (t - x) with every c_t nonzero.
Per node this is sum_{j <= m-2} C(|A|, j) (q-1)^j points (|A|(q-1) + 1 for
caps), each one vector addition over q x q lookup lists plus its code.
The randomized greedy uses the same update, testing a candidate with one
bit of the mask.

For q = 2, m = 4 the m-general condition is the Sidon pair-sum condition:
adding p to A with pair-sum set S forbids exactly {p}, A, and S xor p, so
the update is a few whole-mask XOR translates (`_xor_shift`) instead of a
walk over the pairs' flats.

Certificates are JSON files carrying the witness and enough provenance to
re-verify from scratch; `verify_certificate` re-runs both the geometric and
arithmetic oracles on the witness and re-checks the counting bound.
"""

from __future__ import annotations

import json
import random
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from operator import getitem, mul

from . import __version__
from .affine import PointSet, _check_m_range
from .arithmetic import is_m_general_arithmetic
from .bounds import integer_cap, refined_bound
from .field import Field, field_for_order, field_from_q_spec, make_field

__all__ = [
    "SearchCertificate",
    "search_exact",
    "search_greedy",
    "verify_certificate",
    "write_certificate",
    "read_certificate",
    "MalformedCertificateError",
    "AmbientMismatchError",
]

DEFAULT_MAX_NODES = 100_000_000
DEFAULT_MAX_SECONDS = 300.0

AMBIENT_LIMIT = 1 << 20  # points in the ambient space


class MalformedCertificateError(ValueError):
    pass


class AmbientMismatchError(ValueError):
    pass


@dataclass(frozen=True)
class SearchCertificate:
    n: int
    q_spec: str
    m: int
    value: int
    exact: bool
    witness: tuple[tuple[int, ...], ...]
    nodes_explored: int
    prune_bound_used: float | None
    seed: int | None
    restarts: int | None
    reductions: tuple[str, ...]
    toolchain: dict

    def point_set(self) -> PointSet:
        field = field_from_q_spec(self.q_spec)
        return PointSet.of(field, self.n, self.witness)


def _as_field(q) -> Field:
    return q if isinstance(q, Field) else field_for_order(q)


def _ambient_size(field: Field, n: int) -> int:
    total = field.q**n
    if total > AMBIENT_LIMIT:
        raise ValueError(f"ambient too large for search: q^n = {total}")
    return total


def _decode(q: int, n: int, code: int) -> tuple[int, ...]:
    """Inverse of PointSet.encode: the point whose base-q digits are code."""
    coords = []
    for _ in range(n):
        code, c = divmod(code, q)
        coords.append(c)
    return tuple(reversed(coords))


class _Budget:
    """Node/time budget shared by one search run."""

    __slots__ = ("nodes", "max_nodes", "deadline", "exhausted")

    def __init__(self, max_nodes: int, max_seconds: float):
        self.nodes = 0
        self.max_nodes = max_nodes
        self.deadline = time.monotonic() + max_seconds
        self.exhausted = False

    def tick(self) -> bool:
        """Count a node; True while within budget."""
        self.nodes += 1
        if self.nodes > self.max_nodes:
            self.exhausted = True
        elif self.nodes % 1024 == 0 and time.monotonic() > self.deadline:
            self.exhausted = True
        return not self.exhausted


class _Best:
    __slots__ = ("size", "witness")

    def __init__(self):
        self.size = 0
        self.witness: list[int] = []

    def offer(self, codes: list[int]) -> None:
        if len(codes) > self.size:
            self.size = len(codes)
            self.witness = list(codes)


class _CapReached(Exception):
    pass


# -- blocked-flat kernel -----------------------------------------------------------


class _Flats:
    """Blocked-flat kernel (see the module docstring) for one (field, n, m).

    Vectors are coordinate tuples.  Field addition and scaling are q x q
    lookup lists when q^2 <= AMBIENT_LIMIT, which holds for every n >= 2;
    only a large field at n = 1 calls the Field methods instead.
    """

    __slots__ = ("q", "n", "m", "full", "weights", "vadd", "vscale", "minus_one")

    def __init__(self, field: Field, n: int, m: int):
        q = field.q
        self.q, self.n, self.m = q, n, m
        self.full = (1 << q**n) - 1
        self.weights = [q ** (n - 1 - j) for j in range(n)]
        self.minus_one = field.neg(1)
        if q * q <= AMBIENT_LIMIT:
            elems = range(q)
            add_rows = [[field.add(a, b) for b in elems] for a in elems].__getitem__
            mul_rows = [[field.mul(c, a) for a in elems] for c in elems]
            self.vadd = lambda u, v: tuple(map(getitem, map(add_rows, u), v))
            self.vscale = lambda c, u: tuple(map(mul_rows[c].__getitem__, u))
        else:
            self.vadd = lambda u, v: tuple(map(field.add, u, v))
            self.vscale = lambda c, u: tuple(field.mul(c, a) for a in u)

    def extend(self, pts: list, blocked: int, x: tuple) -> int:
        """The blocked mask after x joins pts: blocked plus every
        x + sum_{t in T} c_t (t - x), all c_t nonzero, over T within pts with
        |T| <= m-2, each built from the point for T minus its last element."""
        vadd, vscale, weights = self.vadd, self.vscale, self.weights
        neg_x = vscale(self.minus_one, x)
        steps = [[vscale(c, vadd(t, neg_x)) for c in range(1, self.q)] for t in pts]
        level = [((x,), 0)]
        blocked |= 1 << sum(map(mul, x, weights))
        for _ in range(min(self.m - 2, len(pts))):
            grown = []
            for hull, start in level:
                for i in range(start, len(steps)):
                    new = [vadd(p, v) for p in hull for v in steps[i]]
                    for p in new:
                        blocked |= 1 << sum(map(mul, p, weights))
                    grown.append((new, i + 1))
            level = grown
        return blocked


def _dfs_flats(flats, codes, pts, blocked, best, budget, cap, best_prune):
    if not budget.tick():
        return
    allowed = ~blocked & flats.full & -(1 << (codes[-1] + 1))
    remaining = allowed.bit_count()
    while allowed:
        if best_prune and len(codes) + remaining <= best.size:
            break
        low = allowed & -allowed
        p = low.bit_length() - 1
        x = _decode(flats.q, flats.n, p)
        child = flats.extend(pts, blocked, x)
        codes.append(p)
        pts.append(x)
        best.offer(codes)
        if cap is not None and best.size >= cap:
            raise _CapReached
        _dfs_flats(flats, codes, pts, child, best, budget, cap, best_prune)
        codes.pop()
        pts.pop()
        if budget.exhausted:
            return
        allowed ^= low
        remaining -= 1


# -- q = 2, m = 4 bitmask engine ---------------------------------------------------


def _magic_masks(n: int) -> list[int]:
    """masks[j] selects the bit positions whose index has bit j clear."""
    total = 1 << n
    masks = []
    for j in range(n):
        v = 1 << j
        block = (1 << v) - 1
        mask = 0
        for start in range(0, total, 2 * v):
            mask |= block << start
        masks.append(mask)
    return masks


def _xor_shift(mask: int, p: int, magic: list[int]) -> int:
    """Transform the set-bitmask {i} into {i xor p}."""
    j = 0
    while p:
        if p & 1:
            v = 1 << j
            mask = ((mask & magic[j]) << v) | ((mask >> v) & magic[j])
        p >>= 1
        j += 1
    return mask


def _dfs_sidon(magic, full, codes, a_mask, s_mask, bad_mask, last, best, budget, cap, best_prune):
    if not budget.tick():
        return
    allowed = ~bad_mask & full & -(1 << (last + 1))
    remaining = allowed.bit_count()
    while allowed:
        if best_prune and len(codes) + remaining <= best.size:
            break
        low = allowed & -allowed
        p = low.bit_length() - 1
        codes.append(p)
        best.offer(codes)
        if cap is not None and best.size >= cap:
            raise _CapReached
        _dfs_sidon(
            magic,
            full,
            codes,
            a_mask | low,
            s_mask | _xor_shift(a_mask, p, magic),
            bad_mask | low | _xor_shift(s_mask, p, magic),
            p,
            best,
            budget,
            cap,
            best_prune,
        )
        codes.pop()
        if budget.exhausted:
            return
        allowed ^= low
        remaining -= 1


# -- drivers -----------------------------------------------------------------------


def _run_span(field, n, m, second_lo, second_hi, max_nodes, max_seconds, cap, best_prune):
    """Explore all sets {0, s, ...} with second point s in [second_lo, second_hi).

    Returns (best_size, witness_codes, nodes, exhausted, cap_hit).
    """
    budget = _Budget(max_nodes, max_seconds)
    best = _Best()
    best.offer([0])
    cap_hit = False
    use_sidon = field.q == 2 and m == 4
    if use_sidon:
        magic = _magic_masks(n)
        full = (1 << (1 << n)) - 1
    else:
        flats = _Flats(field, n, m)
        origin = (0,) * n
    total = field.q**n
    try:
        for s in range(second_lo, second_hi):
            # sets with second point s live inside {0, s} + points above s
            if best_prune and 2 + (total - s - 1) <= best.size:
                break
            codes = [0, s]
            best.offer(codes)
            if cap is not None and best.size >= cap:
                raise _CapReached
            if use_sidon:
                low = 1 << s
                _dfs_sidon(
                    magic, full, codes, 1 | low, low, 1 | low, s,
                    best, budget, cap, best_prune,
                )
            else:
                x = _decode(field.q, n, s)
                blocked = flats.extend([origin], 1, x)
                _dfs_flats(flats, codes, [origin, x], blocked, best, budget, cap, best_prune)
            if budget.exhausted:
                break
    except _CapReached:
        cap_hit = True
    return best.size, best.witness, budget.nodes, budget.exhausted, cap_hit


def _run_span_args(args):
    p, d, modulus, *rest = args
    return _run_span(make_field(p, d, modulus), *rest)


def _make_certificate(field, n, m, value, witness_codes, nodes, exact, bound, seed, restarts, reductions):
    witness = tuple(sorted(_decode(field.q, n, c) for c in witness_codes))
    return SearchCertificate(
        n=n,
        q_spec=field.q_spec,
        m=m,
        value=value,
        exact=exact,
        witness=witness,
        nodes_explored=nodes,
        prune_bound_used=None if bound is None else float(f"{bound:.6g}"),
        seed=seed,
        restarts=restarts,
        reductions=tuple(reductions),
        toolchain={"modulus_id": field.modulus_id, "version": __version__},
    )


def search_exact(
    n: int,
    q,
    m: int,
    *,
    max_nodes: int = DEFAULT_MAX_NODES,
    max_seconds: float = DEFAULT_MAX_SECONDS,
    workers: int = 1,
    best_prune: bool = True,
    cap_prune: bool = True,
) -> SearchCertificate:
    """Branch-and-bound maximum m-general set in F_q^n.

    exact=True in the result means the value is the true maximum; on
    exhausted limits the certificate carries the best witness found so far
    with exact=False.
    """
    field = _as_field(q)
    _check_m_range(m, n)
    total = _ambient_size(field, n)
    bound = refined_bound(n, field.q, m) if m >= 4 else None
    cap = integer_cap(n, field.q, m) if (cap_prune and m >= 4) else None

    if workers <= 1:
        size, witness, nodes, exhausted, cap_hit = _run_span(
            field, n, m, 1, total, max_nodes, max_seconds, cap, best_prune
        )
    else:
        chunk = max(1, -(-(total - 1) // (workers * 4)))
        spans = [(s, min(s + chunk, total)) for s in range(1, total, chunk)]
        args = [
            (field.p, field.d, field.modulus, n, m, lo, hi, max_nodes, max_seconds, cap, best_prune)
            for lo, hi in spans
        ]
        size, witness, nodes, exhausted, cap_hit = 1, [0], 0, False, False
        with ProcessPoolExecutor(max_workers=workers) as pool:
            for r_size, r_wit, r_nodes, r_exh, r_cap in pool.map(_run_span_args, args):
                nodes += r_nodes
                exhausted = exhausted or r_exh
                cap_hit = cap_hit or r_cap
                if r_size > size:
                    size, witness = r_size, r_wit

    exact = (not exhausted) or (cap is not None and size >= cap)
    reductions = ["fix-origin", "canonical-order"]
    if cap is not None:
        reductions.append("refined-bound-cap")
    if best_prune:
        reductions.append("best-prune")
    return _make_certificate(
        field, n, m, size, witness, nodes, exact, bound, None, None, reductions
    )


def search_greedy(n: int, q, m: int, seed: int = 0, restarts: int = 1) -> SearchCertificate:
    """Randomized greedy with restarts; deterministic for a given (seed, restarts)."""
    if restarts < 1:
        raise ValueError(f"need restarts >= 1, got {restarts}")
    field = _as_field(q)
    _check_m_range(m, n)
    total = _ambient_size(field, n)
    use_sidon = field.q == 2 and m == 4
    flats = None if use_sidon else _Flats(field, n, m)
    bound = refined_bound(n, field.q, m) if m >= 4 else None
    best_sz, best_wit = 0, []
    checks = 0
    for r in range(restarts):
        rng = random.Random(f"{seed}:{r}")
        order = list(range(total))
        rng.shuffle(order)
        if use_sidon:
            chosen: list[int] = []
            sums = set()
            for code in order:
                checks += 1
                new = {code ^ a for a in chosen}
                if new & sums:
                    continue
                chosen.append(code)
                sums |= new
        else:
            chosen = []
            pts: list = []
            blocked = 0
            for code in order:
                checks += 1
                if blocked >> code & 1:
                    continue
                x = _decode(field.q, n, code)
                blocked = flats.extend(pts, blocked, x)
                chosen.append(code)
                pts.append(x)
        wit = sorted(chosen)
        if len(wit) > best_sz or (len(wit) == best_sz and wit < best_wit):
            best_sz, best_wit = len(wit), wit
    return _make_certificate(
        field, n, m, best_sz, best_wit, checks, False, bound, seed, restarts,
        ["greedy"],
    )


# -- certificate I/O and verification ------------------------------------------------


def certificate_to_json(cert: SearchCertificate) -> str:
    doc = {
        "format": 1,
        "params": {"n": cert.n, "q_spec": cert.q_spec, "m": cert.m},
        "value": cert.value,
        "exact": cert.exact,
        "witness": [" ".join(str(c) for c in p) for p in cert.witness],
        "nodes_explored": cert.nodes_explored,
        "prune_bound_used": cert.prune_bound_used,
        "seed": cert.seed,
        "restarts": cert.restarts,
        "reductions": list(cert.reductions),
        "toolchain": cert.toolchain,
    }
    return json.dumps(doc, indent=2) + "\n"


def write_certificate(path, cert: SearchCertificate) -> None:
    text = certificate_to_json(cert)
    if hasattr(path, "write"):
        path.write(text)
    else:
        with open(path, "w") as fh:
            fh.write(text)


def read_certificate(path) -> SearchCertificate:
    if hasattr(path, "read"):
        text = path.read()
    else:
        with open(path) as fh:
            text = fh.read()
    try:
        doc = json.loads(text)
        params = doc["params"]
        witness = tuple(
            tuple(int(tok) for tok in line.split()) for line in doc["witness"]
        )
        cert = SearchCertificate(
            n=int(params["n"]),
            q_spec=str(params["q_spec"]),
            m=int(params["m"]),
            value=int(doc["value"]),
            exact=bool(doc["exact"]),
            witness=witness,
            nodes_explored=int(doc["nodes_explored"]),
            prune_bound_used=doc.get("prune_bound_used"),
            seed=doc.get("seed"),
            restarts=doc.get("restarts"),
            reductions=tuple(doc.get("reductions", ())),
            toolchain=dict(doc.get("toolchain", {})),
        )
    except MalformedCertificateError:
        raise
    except (KeyError, TypeError, ValueError, json.JSONDecodeError) as e:
        raise MalformedCertificateError(f"malformed certificate: {e}") from None
    return cert


def verify_certificate(cert) -> bool:
    """Re-verify a certificate from scratch.

    Raises MalformedCertificateError / AmbientMismatchError for files that
    cannot be interpreted; returns False when the witness or the claimed
    value fails re-verification.
    """
    if not isinstance(cert, SearchCertificate):
        cert = read_certificate(cert)
    try:
        field = field_from_q_spec(cert.q_spec)
    except ValueError as e:
        raise MalformedCertificateError(str(e)) from None
    try:
        ps = PointSet.of(field, cert.n, cert.witness)
    except ValueError as e:
        raise AmbientMismatchError(str(e)) from None
    if len(ps) != len(cert.witness):
        return False  # duplicate witness points
    if cert.value != len(ps):
        return False
    from .affine import is_m_general

    if not is_m_general(ps, cert.m):
        return False
    if len(ps) >= cert.m and not is_m_general_arithmetic(ps, cert.m):
        return False
    if cert.m >= 4 and cert.value > integer_cap(cert.n, field.q, cert.m):
        return False
    return True
