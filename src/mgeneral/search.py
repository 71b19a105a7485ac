"""Exact and heuristic search for maximum m-general sets, with certificates.

The exact search is a depth-first branch and bound over points in canonical
order.  Symmetry reduction fixes the first point at the origin (translation
acts transitively and preserves m-generality) and grows sets only by points
greater than the last chosen, so every candidate set is enumerated once and
the first witness found at any size is the lexicographically least one.

Pruning (both rules individually toggleable):
* abandon a branch when |A| plus the number of remaining candidates cannot
  beat the best size found;
* once the best size reaches the floor of the refined counting bound, no
  larger set can exist and the search stops, still exact.

For q = 2, m = 4 the m-general condition is the Sidon pair-sum condition,
and the engine keeps the forbidden set as a bitmask over all 2^n points:
adding p to A with pair-sum set S forbids exactly {p}, A, and S xor p, so
one big-integer update per extension replaces subset re-checks.

Certificates are JSON files carrying the witness and enough provenance to
re-verify from scratch; `verify_certificate` re-runs both the geometric and
arithmetic oracles on the witness and re-checks the counting bound.
"""

from __future__ import annotations

import json
import math
import random
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from itertools import combinations

from . import __version__
from .affine import PointSet, _independent, _check_m_range
from .arithmetic import is_m_general_arithmetic
from .bounds import refined_bound
from .field import Field, field_for_order, field_from_q_spec, make_field

__all__ = [
    "SearchCertificate",
    "SearchLimits",
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
class SearchLimits:
    max_nodes: int = DEFAULT_MAX_NODES
    max_seconds: float = DEFAULT_MAX_SECONDS


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


def _decode_all(field: Field, n: int) -> list[tuple[int, ...]]:
    q = field.q
    total = q**n
    if total > AMBIENT_LIMIT:
        raise ValueError(f"ambient too large for search: q^n = {total}")
    pts = []
    for code in range(total):
        coords, c = [], code
        for _ in range(n):
            coords.append(c % q)
            c //= q
        pts.append(tuple(reversed(coords)))
    return pts


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


# -- generic engine --------------------------------------------------------------


def _feasible_generic(field: Field, pts: list, cand, m: int) -> bool:
    s = min(m, len(pts) + 1)
    if s <= 2:
        return True
    for rest in combinations(pts, s - 1):
        if not _independent(field, rest + (cand,)):
            return False
    return True


def _dfs_generic(field, decoded, m, codes, pts, start, best, budget, cap, best_prune):
    if not budget.tick():
        return
    total = len(decoded)
    for code in range(start, total):
        if best_prune and len(codes) + (total - code) <= best.size:
            break
        cand = decoded[code]
        if not _feasible_generic(field, pts, cand, m):
            continue
        codes.append(code)
        pts.append(cand)
        best.offer(codes)
        if cap is not None and best.size >= cap:
            raise _CapReached
        _dfs_generic(field, decoded, m, codes, pts, code + 1, best, budget, cap, best_prune)
        codes.pop()
        pts.pop()
        if budget.exhausted:
            return


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


def _run_span(field, n, m, second_lo, second_hi, limits, cap, best_prune):
    """Explore all sets {0, s, ...} with second point s in [second_lo, second_hi).

    Returns (best_size, witness_codes, nodes, exhausted, cap_hit).
    """
    budget = _Budget(limits.max_nodes, limits.max_seconds)
    best = _Best()
    best.offer([0])
    cap_hit = False
    use_sidon = field.q == 2 and m == 4
    if use_sidon:
        magic = _magic_masks(n)
        full = (1 << (1 << n)) - 1
    else:
        decoded = _decode_all(field, n)
    total = field.q**n
    try:
        for s in range(second_lo, second_hi):
            # sets with second point s live inside {0, s} + points above s
            if best_prune and 2 + (total - s - 1) <= best.size:
                break
            if use_sidon:
                low = 1 << s
                codes = [0, s]
                best.offer(codes)
                if cap is not None and best.size >= cap:
                    raise _CapReached
                _dfs_sidon(
                    magic, full, codes, 1 | low, low, 1 | low, s,
                    best, budget, cap, best_prune,
                )
            else:
                codes = [0, s]
                pts = [decoded[0], decoded[s]]
                best.offer(codes)
                if cap is not None and best.size >= cap:
                    raise _CapReached
                _dfs_generic(
                    field, decoded, m, codes, pts, s + 1,
                    best, budget, cap, best_prune,
                )
            if budget.exhausted:
                break
    except _CapReached:
        cap_hit = True
    return best.size, best.witness, budget.nodes, budget.exhausted, cap_hit


def _run_span_args(args):
    p, d, modulus, n, m, lo, hi, limits, cap, best_prune = args
    field = make_field(p, d, modulus)
    return _run_span(field, n, m, lo, hi, limits, cap, best_prune)


def _make_certificate(field, n, m, value, witness_codes, nodes, exact, bound, seed, restarts, reductions):
    decoded = _decode_all(field, n)
    witness = tuple(sorted(decoded[c] for c in witness_codes))
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
    total = field.q**n
    if total > AMBIENT_LIMIT:
        raise ValueError(f"ambient too large for search: q^n = {total}")
    bound = refined_bound(n, field.q, m) if m >= 4 else None
    cap = math.floor(bound) if (cap_prune and bound is not None) else None
    limits = SearchLimits(max_nodes, max_seconds)

    if workers <= 1:
        size, witness, nodes, exhausted, cap_hit = _run_span(
            field, n, m, 1, total, limits, cap, best_prune
        )
    else:
        chunk = max(1, -(-(total - 1) // (workers * 4)))
        spans = [(s, min(s + chunk, total)) for s in range(1, total, chunk)]
        args = [
            (field.p, field.d, field.modulus, n, m, lo, hi, limits, cap, best_prune)
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
    decoded = _decode_all(field, n)
    total = len(decoded)
    use_sidon = field.q == 2 and m == 4
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
            for code in order:
                checks += 1
                cand = decoded[code]
                if _feasible_generic(field, pts, cand, m):
                    chosen.append(code)
                    pts.append(cand)
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
    if cert.m >= 4:
        if cert.value > math.floor(refined_bound(cert.n, field.q, cert.m)):
            return False
    return True
