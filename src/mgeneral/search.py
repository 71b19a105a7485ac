"""Exact and heuristic search for maximum m-general sets, with certificates.

The exact search is a depth-first branch and bound over points in canonical
order.  Symmetry reduction fixes the first point at the origin (translation
acts transitively and preserves m-generality) and grows sets only by points
greater than the last chosen, so every candidate set is enumerated once and
the first witness found at any size is the lexicographically least one.

One search loop and one randomized greedy run for every (q, m).  Each
keeps, per depth, the points that can no longer join A as one big-integer
bitmask over all q^n point codes, updated by a blocked-set kernel when a
point joins; the search tries the allowed points above the last chosen
one lowest bit first, and the greedy reads a candidate's bit in a `bytes`
copy of the mask made when a point joins, O(1) per candidate.  No rank
test runs in the search loop.  The kernel is built for the tested m of
`affine._tested_m`, 2 floor(m/2) over F_2 (the F_2 rule of the `affine`
docstring) and m otherwise.  q, and for q > 2 the ambient, picks the kernel:

* Subset sums (`_SubsetSums`, q = 2, k = floor(m/2)): a relation over F_2
  is an even subset summing to 0, so A + {x} stays 2k-general exactly when
  x is no sum of an odd subset of A of size <= 2k - 1.  The state packs, for
  i < k, the sums O_i of odd subsets of size <= 2i - 1 and E_i of even ones
  of size <= 2i (0 among them) into one int.  x joining blocks {x} and
  x xor E_{k-1}, O_i gains x xor E_{i-1} and E_i gains x xor O_i: one XOR
  translate of all blocks, a bit-block swap per set bit of x, shifted up a
  block.  k = 2 is the Sidon (pair-sum) update; `_Lifted` ran it 3.6x slower.
* Lifted masks (`_Lifted`, q > 2, n >= 2 and q^(n+1) < AMBIENT_LIMIT): A is
  m-general iff the lifted vectors (1, t), t in A, have no nontrivial
  relation on <= m of them, so A + {p} is m-general exactly when (1, p) is
  no F_q-combination of <= m-1 of them.  The state keeps, for j <= m-2, the
  mask W_j of all combinations of <= j lifted points over F_q^(n+1).  When x
  joins, with y = (1, x), the combinations through y are C(W) = W + F_q y:
  the s = 1 slice of C(W_{m-2}) is blocked and each W_j gains C(W_{j-1}).
  C(W) is d ceil(log2 p) doublings W |= W + 2^k p^i y, and each translate
  is one rotation of a base-p digit per nonzero digit of the vector (two
  ANDs, two shifts, one OR with precomputed masks).  The first extend by a
  code gathers the rotations of each doubling for its y into the code's
  plan, and every later one by that code reuses it, so no extend decodes a
  code twice and a kernel holds at most q^n plans, a few hundred bytes each
  (18 MB for all of AG(10,3)).  W_0 = {0}, W_1, ...,
  W_{m-2} are packed per = max(1, min(m-1, PACK_BITS // q^(n+1))) blocks
  to an int, and one closure pass covers every block of an int, so a node
  costs at most ceil((m-1)/per) d^2 (n+1) ceil(log2 p) rotations of
  per q^(n+1)-bit ints whatever |A| is.  Rotations of ints over PACK_BITS
  cost more than the Python steps they save, so large ambients keep
  per = 1 and the (n+1) d (p-1) digit masks on q^(n+1) bits: 39 MB at
  q = 101, n = 2.
* Blocked flats (`_Flats`, q > 2 and n = 1, or q^(n+1) >= AMBIENT_LIMIT,
  where the lifted masks cost more than they save):
  A + {p} is m-general exactly when p lies in no affine hull of
  min(m-1, |A|) points of A.  When x joins A, the update ORs in the hulls
  of {x} + T over the subsets T of A with |T| <= m-2, enumerated as
  x + sum c_t (t - x) with every c_t nonzero.  Per node this is
  sum_{j <= m-2} C(|A|, j) (q-1)^j points (|A|(q-1) + 1 for caps), each one
  vector addition over q x q lookup lists plus its code.

Pruning, both rules always on:
* abandon a branch when |A| plus the number of allowed candidates left
  cannot beat the best size found;
* once the best size reaches `bounds.search_cap`, no larger set can exist
  and the search stops, still exact.  The cap is the least that applies,
  and `reductions` names it: `refined-bound-cap`, the counting bound's
  integer cap max{x : L C(x, k) <= q^n} for m >= 4; `dimension-cap`, n + 1
  for m = n + 2, and for q = 2, m = n + 1 with n odd; `arc-cap`,
  q + 2 - q mod 2 for n = 2 and m = 3 (Bose).
  The cap changes nodes, never witnesses: the first set the search reaches
  at any size is the lex-least one of that size, so the set that reaches
  the cap is the lex-least maximum the exhausted search would report.

Leaf pass: many nodes sit at the best size and only find out that they
cannot grow.  When a node other than the origin holds best - 1 points, each
child it tries sits at the best size, and is a leaf unless some allowed
point above the child stays free once the child joins, which would make a
new best.  `_Run.run` asks the kernel's `leading_leaves` how many of the
lowest allowed codes are leaves (the last one is never tried: the size
bound stops first), counts each leaf as a node under the same stop rules
and drops it with no extend, push or pop; the next child, if any, is a new
best and is pushed as before.  The subset-sum kernel answers with one bit
test of E_{k-1} per pair of codes, or one translate of E_{k-1} where the
codes above x outnumber the set bits of x; `_Lifted` and `_Flats` extend
by each code.  Nodes, values and witnesses are those of the plain loop.

Budgets: `search_exact` splits the second points into spans, one or
4 * workers.  A span is one `_Run` record: the search from the origin whose
first level is a window of second points; every allowed point above the
window's start still counts toward the size bound, so the pruning is that
of the unsplit search.  The search process runs span 0, the heaviest, and
min(workers, CPUs, spans) - 1 helper processes take the others in order
from one shared counter (`_run_in_order`); each process builds one kernel.
`_Run.run` is one loop over a list of frames, not Python calls, so search
depth is limited only by the budgets.  That loop makes every stop, with no
call per node: at the cap, past the span's share max_nodes // spans, or
past the deadline on the system-wide monotonic clock, read at every node.
Both budgets (>= 0) cover the whole run: spans are collected in order until
one reaches the cap.

Greedy restart r scans the point codes in the Fisher-Yates order that
`random.Random(f"{seed}:{r}").shuffle` draws from its `getrandbits`, and
keeps each code left free.

Certificates are JSON files carrying the witness and enough provenance to
re-verify from scratch; `verify_certificate` re-runs both the geometric and
arithmetic oracles on the witness and re-checks the value against every
cap of `bounds.within_cap`.
"""

from __future__ import annotations

import os
import random
import time
from operator import getitem, mul

from . import __version__
from ._record import record
from .affine import PointSet, _check_m_range, _path_or_stream, _tested_m, is_m_general
from .arithmetic import is_m_general_arithmetic
from .bounds import refined_bound, search_cap, within_cap
from .field import Field, field_for_order, field_from_q_spec

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
PACK_BITS = 1 << 13  # most bits of _Lifted masks packed into one int

# the reduction a certificate names for each reason of bounds.search_cap
_CAP_REDUCTIONS = {"counting": "refined-bound-cap", "dimension": "dimension-cap", "arc": "arc-cap"}


class MalformedCertificateError(ValueError):
    pass


class AmbientMismatchError(ValueError):
    pass


@record
class SearchCertificate:
    """A search's result and provenance, the fields of a format-1 file."""

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


# The format-1 keys in file order after "format": 1, one row per key (and per
# SearchCertificate field, in order): key, exact JSON type (a bool is no int),
# default when a file omits it or ... if it must not.  _PARAMS nest under
# "params", lists hold strings, and null stands only for a null default.
_KEYS = (
    ("n", int, ...),
    ("q_spec", str, ...),
    ("m", int, ...),
    ("value", int, ...),
    ("exact", bool, ...),
    ("witness", list, ...),
    ("nodes_explored", int, ...),
    ("prune_bound_used", float, None),
    ("seed", int, None),
    ("restarts", int, None),
    ("reductions", list, []),
    ("toolchain", dict, {}),
)
_PARAMS = ("n", "q_spec", "m")


def _setup(n: int, q, m: int):
    """(field, q^n, refined bound or None) for a search in F_q^n, q a Field
    or a prime power; raises ValueError for m out of range or an ambient
    of more than AMBIENT_LIMIT points."""
    field = q if isinstance(q, Field) else field_for_order(q)
    _check_m_range(m, n)
    # q^n >= 2^n, so a large n is refused before q^n is computed
    if n >= AMBIENT_LIMIT.bit_length() or field.q**n > AMBIENT_LIMIT:
        raise ValueError(f"ambient too large for search: q^n = {field.q}^{n} > {AMBIENT_LIMIT}")
    return field, field.q**n, refined_bound(n, field.q, m) if m >= 4 else None


def _decode(q: int, n: int, code: int) -> tuple[int, ...]:
    """Inverse of PointSet.encode: the point whose base-q digits are code."""
    coords = []
    for _ in range(n):
        code, c = divmod(code, q)
        coords.append(c)
    return tuple(reversed(coords))


class _Run:
    """One span of the exact search, sets {0, s, ...} with s in [lo, hi), and
    its record: budgets, cap, nodes counted, whether it stopped, best set."""

    __slots__ = ("field", "n", "m", "lo", "hi", "max_nodes", "deadline", "cap",
                 "nodes", "stopped", "size", "witness")

    def __init__(self, field: Field, n: int, m: int, lo: int, hi: int,
                 max_nodes: int, deadline: float, cap: int | None):
        self.field, self.n, self.m = field, n, m
        self.lo, self.hi = lo, hi
        self.max_nodes = max_nodes
        self.deadline = deadline
        self.cap = cap
        self.nodes = 0
        self.stopped = False
        self.size = 1  # the origin; a cap, where there is one, is at least 2
        self.witness = [0]

    def run(self, kernel) -> _Run:
        """The search from the origin with kernel, the blocked-set kernel of
        (field, n, m), built once per process (`_Flats`' lookup closures do
        not pickle); returns self.  codes is the current
        set A; frames holds a (state, allowed, remaining) frame for each
        parent of A, allowed the points it has yet to try and remaining
        the count toward the size bound.  Only the bottom frame is masked
        by the window; every child allows all points above its new code.

        Each node is counted unless it reaches the cap; the search stops
        there, past the node budget or past the deadline, with `stopped`
        set.  Leaf pass (see the module docstring): a frame above the bottom
        one whose set is one short of the best size counts its leading
        leaves one node at a time under the same stops and drops them with
        no extend, then pops or pushes its next child, a new best.  The
        bottom frame's allowed is windowed, its children's are not, so it
        keeps the plain path."""
        full, extend, leaves, clock = kernel.full, kernel.extend, kernel.leading_leaves, time.monotonic
        cap = self.cap if self.cap is not None else float("inf")
        max_nodes, deadline, size, nodes = self.max_nodes, self.deadline, self.size, self.nodes
        state, codes, frames = extend(kernel.empty, 0), [0], []
        allowed = ~state[0] & full & -(1 << self.lo)
        remaining = allowed.bit_count()
        allowed &= (1 << self.hi) - 1  # the window [lo, hi)
        try:
            while True:
                if allowed and (depth := len(codes)) + remaining > size:
                    if depth == size - 1 and frames:  # every child is at the best size
                        for _ in range(leaves(state, allowed)):
                            nodes += 1
                            if nodes > max_nodes or clock() > deadline:
                                self.stopped = True
                                return self
                            allowed &= allowed - 1
                            remaining -= 1
                        if remaining < 2:  # only the last code is left: pop
                            continue
                    low = allowed & -allowed
                    codes.append(low.bit_length() - 1)
                    if depth == size:  # a new best
                        size, self.witness = depth + 1, list(codes)
                        if size >= cap:
                            self.stopped = True
                            return self
                    nodes += 1
                    if nodes > max_nodes or clock() > deadline:
                        self.stopped = True
                        return self
                    frames.append((state, allowed ^ low, remaining - 1))
                    state = extend(state, codes[-1])
                    allowed = ~state[0] & full & -(low << 1)
                    remaining = allowed.bit_count()
                elif frames:
                    state, allowed, remaining = frames.pop()
                    codes.pop()
                else:
                    return self
        finally:
            self.size, self.nodes = size, nodes


# -- blocked-set kernels -----------------------------------------------------------
#
# A kernel has `full` (every point code), an `empty` state,
# `extend(state, code) -> state` for a point joining A, and
# `leading_leaves(state, allowed) -> int`, allowed a set of codes free in
# state, for the search's leaf pass; the first field of a state is the
# blocked mask, the codes that can no longer join A.


def _leaves_by_extend(kernel, state, allowed) -> int:
    """How many of the lowest codes x of allowed, the last one excepted, leave
    no allowed code above x free once x joins A: one extend per code."""
    count, extend = 0, kernel.extend
    while True:
        low = allowed & -allowed
        allowed ^= low
        if not allowed or allowed & ~extend(state, low.bit_length() - 1)[0]:
            return count
        count += 1


def _digit_mask(p: int, k: int, t: int, size: int) -> int:
    """The mask of the codes under size whose base-p digit k is under t."""
    mask, period = (1 << t * p**k) - 1, p ** (k + 1)  # repeated with this period
    while period < size:
        mask |= mask << period
        period *= 2
    return mask & (1 << size) - 1


class _Flats:
    """Blocked-flat kernel (see the module docstring) for one (field, n, m).

    The state is (blocked, points of A as coordinate tuples).  Field
    addition and scaling are q x q lookup lists for n >= 2 (q^2 <= q^n <=
    AMBIENT_LIMIT there); at n = 1, where a search stops at two points,
    they call the Field methods instead.
    """

    __slots__ = ("q", "n", "m", "full", "empty", "weights", "vadd", "vscale", "minus_one")

    def __init__(self, field: Field, n: int, m: int):
        q = field.q
        self.q, self.n, self.m = q, n, m
        self.full = (1 << q**n) - 1
        self.empty = (0, ())
        self.weights = [q ** (n - 1 - j) for j in range(n)]
        self.minus_one = field.neg(1)
        if n >= 2:
            elems = range(q)
            add_rows = [[field.add(a, b) for b in elems] for a in elems].__getitem__
            mul_rows = [[field.mul(c, a) for a in elems] for c in elems]
            self.vadd = lambda u, v: tuple(map(getitem, map(add_rows, u), v))
            self.vscale = lambda c, u: tuple(map(mul_rows[c].__getitem__, u))
        else:
            self.vadd = lambda u, v: tuple(map(field.add, u, v))
            self.vscale = lambda c, u: tuple(field.mul(c, a) for a in u)

    def extend(self, state, code: int):
        """The point x with this code joins A: block every
        x + sum_{t in T} c_t (t - x), all c_t nonzero, over T within A with
        |T| <= m-2, each built from the point for T minus its last element."""
        blocked, pts = state
        vadd, vscale, weights = self.vadd, self.vscale, self.weights
        x = _decode(self.q, self.n, code)
        neg_x = vscale(self.minus_one, x)
        steps = [[vscale(c, vadd(t, neg_x)) for c in range(1, self.q)] for t in pts]
        level = [((x,), 0)]
        blocked |= 1 << code
        for _ in range(min(self.m - 2, len(pts))):
            grown = []
            for hull, start in level:
                for i in range(start, len(steps)):
                    new = [vadd(p, v) for p in hull for v in steps[i]]
                    for p in new:
                        blocked |= 1 << sum(map(mul, p, weights))
                    grown.append((new, i + 1))
            level = grown
        return blocked, pts + (x,)

    leading_leaves = _leaves_by_extend


class _Lifted:
    """Lifted secant-mask kernel (see the module docstring) for one
    (field, n, m), n >= 2 and q^(n+1) < AMBIENT_LIMIT.

    The state is (blocked, *ints), the ints holding W_0 = {0}, W_1, ...,
    W_{m-2}, each a mask over the lifted codes s q^n + code(v) of F_q^(n+1),
    in blocks of S = q^(n+1) bits from the lowest, per = max(1, min(m-1,
    PACK_BITS // S)) blocks to an int (per = 1 on large ambients).  A
    code is (n+1) d base-p digits and addition is digit-wise mod p, so
    translating a mask by c p^k rotates digit k:
    `(W & below[k][p-c]) << c p^k | (W >> (p-c) p^k) & below[k][c]`, with
    below[k][t] the codes whose digit k is under t.  These masks repeat with
    a period dividing S, so one rotation moves every block of an int and no
    carry crosses a block.  There is one step per lambda = (2^j mod p) p^k,
    whose translates double a mask up to its closure under the line
    F_q (1, x); `steps[r][i][e]` holds the rotations that add lambda * e in
    coordinate i (0 being s), one per nonzero digit.  `plans[code]` holds,
    per step r, the rotations of `steps[r]` for the coordinates of (1, x),
    flattened in order: built on the first extend by that code, so a kernel
    holds at most q^n plans.
    """

    __slots__ = ("full", "empty", "steps", "plans", "n", "q", "block", "lows", "carry", "slice")

    def __init__(self, field: Field, n: int, m: int):
        p, d, q = field.p, field.d, field.q
        self.n, self.q = n, q
        self.full = (1 << q**n) - 1
        size = self.block = q ** (n + 1)
        per = max(1, min(m - 1, PACK_BITS // size))
        ints, last = divmod(m - 2, per)  # W_{m-2} is block `last` of int `ints`
        self.empty = (0,) + (sum(1 << b * size for b in range(per)),) * ints + (
            sum(1 << b * size for b in range(last + 1)),)  # each W_j = {0}
        # the blocks of an int that move up one within it; the top one carries
        self.lows = [(1 << (per - 1) * size) - 1] * ints + [(1 << last * size) - 1]
        self.carry = (per - 1) * size
        self.slice = last * size + q**n  # the s = 1 slice of W_{m-2}
        below = [[_digit_mask(p, k, t, per * size) for t in range(p)] for k in range((n + 1) * d)]
        rots = []  # rots[i][e]: the rotations adding e in coordinate i
        for i in range(n + 1):
            row = []
            for e in range(q):
                rot = []
                for t in range(d):
                    c = e // p**t % p
                    if c:
                        k = (n - i) * d + t
                        w = p**k
                        rot.append((below[k][p - c], c * w, (p - c) * w, below[k][c]))
                row.append(tuple(rot))
            rots.append(row)
        doublings = (p - 1).bit_length()  # 2^doublings >= p
        self.steps = [[[rots[i][field.mul(lam, e)] for e in range(q)] for i in range(n + 1)]
                      for lam in (pow(2, j, p) * p**k for k in range(d) for j in range(doublings))]
        self.plans = {}

    def extend(self, state, code: int):
        """The point x with this code joins A, y = (1, x): with C(W) = W + F_q y
        closing every block at once, block the s = 1 slice of C(W_{m-2}), and
        W_j |= C(W_{j-1}) with the old W_{j-1}, one block up."""
        blocked, *packed = state
        try:
            plan = self.plans[code]
        except KeyError:
            coords = (1, *_decode(self.q, self.n, code))
            plan = self.plans[code] = tuple(
                tuple(rot for rots, e in zip(step, coords) for rot in rots[e]) for step in self.steps)
        block, carry = self.block, self.carry
        grown, up = [], 0
        for w, low in zip(packed, self.lows):
            old = w
            for rots in plan:
                t = w
                for lo, shift, down, hi in rots:
                    t = (t & lo) << shift | (t >> down) & hi
                w |= t
            grown.append(old | up | (w & low) << block)
            up = w >> carry if carry else w  # a shift by 0 would copy w
        return (blocked | w >> self.slice & self.full, *grown)

    leading_leaves = _leaves_by_extend


class _SubsetSums:
    """Subset-sum kernel for q = 2, k = floor(m/2) (see the module docstring).

    The state is (blocked, P), P holding O_1, E_1, ..., O_{k-1}, E_{k-1} in
    blocks of 2^n bits from the lowest.  Each swap (v, mask) pairs a power of
    two v with the positions i where i & v == 0, so translating every block
    by x is one swap of bit blocks per set bit v of x.
    """

    __slots__ = ("full", "empty", "swaps", "block", "top", "packed")

    def __init__(self, field: Field, n: int, m: int):
        size, blocks = 1 << n, 2 * (m // 2) - 2
        self.full, self.packed = (1 << size) - 1, (1 << blocks * size) - 1
        self.block, self.top = size, max(blocks - 1, 0) * size  # top: E_{k-1}
        self.empty = (0, sum(1 << i * size for i in range(1, blocks, 2)))  # each E_i = {0}
        self.swaps = [(1 << j, _digit_mask(2, j, 1, blocks * size)) for j in range(n)]

    def extend(self, state, code: int):
        """code joins: block {code} and code xor E_{k-1}, then P gains the
        translate code xor P shifted up a block, and {code} (E_0 = {0})."""
        blocked, packed = state
        moved = packed
        for v, mask in self.swaps:
            if code & v:
                moved = (moved & mask) << v | (moved >> v) & mask
        low = 1 << code
        return blocked | low | moved >> self.top, (packed | moved << self.block | low) & self.packed

    def leading_leaves(self, state, allowed) -> int:
        """How many of the lowest codes x of allowed, the last one excepted,
        leave no allowed code y above x free once x joins A.  x blocks {x}
        and x xor E_{k-1}, so y stays free exactly when bit x xor y of
        E_{k-1} is clear: one bit test per pair while the codes above x are
        no more than the swaps of a translate of E_{k-1} by x, the translate
        otherwise.  At k = 1 there is no block and x blocks x alone."""
        sums, swaps = state[1] >> self.top, self.swaps
        count = 0
        while True:
            low = allowed & -allowed
            allowed ^= low
            if not allowed:
                return count
            x = low.bit_length() - 1
            if allowed.bit_count() <= x.bit_count():
                rest = allowed
                while rest:
                    y = rest & -rest
                    if not sums >> (x ^ y.bit_length() - 1) & 1:
                        return count
                    rest ^= y
            else:
                moved = sums
                for v, mask in swaps:
                    if x & v:
                        moved = (moved & mask) << v | (moved >> v) & mask
                if allowed & ~moved:
                    return count
            count += 1


def _kernel(field: Field, n: int, m: int):
    """The blocked-set kernel for (q, n) and the tested m: subset sums for
    q = 2; for q > 2, lifted masks for n >= 2 and q^(n+1) < AMBIENT_LIMIT,
    else flats."""
    m = _tested_m(field, m)
    if field.q == 2:
        return _SubsetSums(field, n, m)
    if n >= 2 and field.q ** (n + 1) < AMBIENT_LIMIT:
        return _Lifted(field, n, m)
    return _Flats(field, n, m)


# -- drivers -----------------------------------------------------------------------


def _make_certificate(field, n, m, codes, bound, **fields) -> SearchCertificate:
    """The certificate for the set of point codes found; fields gives the
    search's own entries: exact, nodes_explored, seed, restarts, reductions."""
    return SearchCertificate(
        n=n,
        q_spec=field.q_spec,
        m=m,
        value=len(codes),
        witness=tuple(sorted(_decode(field.q, n, c) for c in codes)),
        prune_bound_used=None if bound is None else float(f"{bound:.6g}"),
        toolchain={"modulus_id": field.modulus_id, "version": __version__},
        **fields,
    )


def _helper(spans, taken, conn) -> None:
    """A helper process: run the spans not yet taken (the shared counter
    taken) and send (index, record or exception) for each on conn, then
    (None, None); an exception ends the loop."""
    kernel = _kernel(spans[0].field, spans[0].n, spans[0].m)
    while True:
        with taken.get_lock():
            i, taken.value = taken.value, taken.value + 1
        if i >= len(spans):
            break
        try:
            run = spans[i].run(kernel)
        except Exception as e:
            from multiprocessing.pool import ExceptionWithTraceback  # as Pool sends one

            conn.send((i, ExceptionWithTraceback(e, e.__traceback__)))
            break
        conn.send((i, (run.size, run.nodes, run.stopped, run.witness)))
    conn.send((None, None))


def _run_in_order(spans, procs, cap) -> list[_Run]:
    """The spans run, in order, up to the first that reaches the cap.  This
    process runs span 0, the heaviest, and procs - 1 helper processes take
    the others; with none it runs them all.  A helper's exception is raised
    here, a helper that exits unreported makes the run raise, and every
    helper is stopped and joined on return."""
    helpers = {}  # result pipe -> process
    # imported here: at module level it would add about 14 ms to the 3 ms of
    # `import mgeneral` (fresh `python -I`, CPython 3.11, 2-CPU x86-64)
    if procs > 1:
        import multiprocessing
        from multiprocessing.connection import wait

        ctx = multiprocessing.get_context()
        taken = ctx.Value("i", 1)
    try:
        for _ in range(procs - 1):
            conn, send = ctx.Pipe(duplex=False)
            proc = ctx.Process(target=_helper, args=(spans, taken, send), daemon=True)
            proc.start()
            helpers[conn] = proc
            send.close()  # the helper holds the only write end, so its exit reads as EOF
        kernel = _kernel(spans[0].field, spans[0].n, spans[0].m)
        runs, reported, live = [spans[0].run(kernel)], {}, list(helpers)
        while len(runs) < len(spans) and (cap is None or runs[-1].size < cap):
            if not helpers:  # one process: it runs every span, in order
                runs.append(spans[len(runs)].run(kernel))
                continue
            while len(runs) not in reported:
                for conn in wait(live):
                    try:
                        i, record = conn.recv()
                    except (EOFError, OSError):
                        raise RuntimeError("a search helper process exited without reporting") from None
                    if i is None:
                        live.remove(conn)
                    else:
                        reported[i] = record
            record = reported.pop(len(runs))
            if isinstance(record, BaseException):
                raise record
            run = spans[len(runs)]
            run.size, run.nodes, run.stopped, run.witness = record
            runs.append(run)
        return runs
    finally:
        for conn, proc in helpers.items():
            proc.terminate()
            proc.join()
            conn.close()


def search_exact(
    n: int,
    q,
    m: int,
    *,
    max_nodes: int = DEFAULT_MAX_NODES,
    max_seconds: float = DEFAULT_MAX_SECONDS,
    workers: int = 1,
) -> SearchCertificate:
    """Branch-and-bound maximum m-general set in F_q^n.

    exact=True in the result means the value is the true maximum; on
    exhausted limits the certificate carries the best witness found so far
    with exact=False.  max_nodes and max_seconds (>= 0) bound the whole run
    for any workers (>= 1); if a span runs out of budget before a later one
    reaches the cap, the value is exact and the witness the later span's.
    """
    if not max_seconds >= 0:  # also refuses NaN, which no clock exceeds
        raise ValueError(f"need max_seconds >= 0, got {max_seconds}")
    if workers < 1:
        raise ValueError(f"need workers >= 1, got {workers}")
    if max_nodes < 0:
        raise ValueError(f"need max_nodes >= 0, got {max_nodes}")
    field, total, bound = _setup(n, q, m)
    cap, reason = search_cap(n, field.q, m)

    deadline = time.monotonic() + max_seconds
    chunk = total - 1 if workers == 1 else max(1, -(-(total - 1) // (workers * 4)))
    starts = range(1, total, chunk)
    spans = [_Run(field, n, m, lo, min(lo + chunk, total), max_nodes // len(starts), deadline, cap)
             for lo in starts]
    # the spans depend on workers alone
    runs = _run_in_order(spans, min(workers, os.cpu_count() or 1, len(spans)), cap)
    best = max(runs, key=lambda r: r.size)  # the first span of the best size

    exact = not any(r.stopped for r in runs) or (cap is not None and best.size >= cap)
    reductions = ["fix-origin", "canonical-order"]
    if cap is not None:
        reductions.append(_CAP_REDUCTIONS[reason])
    reductions.append("best-prune")
    return _make_certificate(
        field, n, m, best.witness, bound, exact=exact,
        nodes_explored=sum(r.nodes for r in runs),
        seed=None, restarts=None, reductions=tuple(reductions),
    )


def search_greedy(n: int, q, m: int, seed: int = 0, restarts: int = 1) -> SearchCertificate:
    """Randomized greedy with restarts; deterministic for a given (seed, restarts)."""
    if restarts < 1:
        raise ValueError(f"need restarts >= 1, got {restarts}")
    field, total, bound = _setup(n, q, m)
    kernel = _kernel(field, n, m)
    best_wit = []
    for r in range(restarts):
        rng = random.Random(f"{seed}:{r}")
        order = list(range(total))
        rng.shuffle(order)
        chosen = []
        state, blocked = kernel.empty, bytes((total + 7) // 8)  # the mask, 8 codes a byte
        for code in order:
            if blocked[code >> 3] >> (code & 7) & 1:
                continue
            state = kernel.extend(state, code)
            blocked = state[0].to_bytes(len(blocked), "little")
            chosen.append(code)
        wit = sorted(chosen)
        if (-len(wit), wit) < (-len(best_wit), best_wit):  # larger, then lex-least
            best_wit = wit
    return _make_certificate(
        field, n, m, best_wit, bound, exact=False, nodes_explored=restarts * total,
        seed=seed, restarts=restarts, reductions=("greedy",),
    )


# -- certificate I/O and verification ------------------------------------------------


def certificate_to_json(cert: SearchCertificate) -> str:
    import json  # imported here: at module level it is about 2 ms of `import mgeneral`

    doc = {"format": 1, "params": {}}
    for key, _, _ in _KEYS:
        (doc["params"] if key in _PARAMS else doc)[key] = getattr(cert, key)
    doc["witness"] = [" ".join(map(str, p)) for p in cert.witness]
    return json.dumps(doc, indent=2) + "\n"


def write_certificate(path, cert: SearchCertificate) -> None:
    with _path_or_stream(path, "w") as fh:
        fh.write(certificate_to_json(cert))


def read_certificate(path) -> SearchCertificate:
    import json  # as in certificate_to_json

    with _path_or_stream(path) as fh:
        text = fh.read()
    try:
        doc = json.loads(text)
        if type(doc["format"]) is not int or doc["format"] != 1:
            raise ValueError(f"unknown format {doc['format']!r}, expected 1")
        fields = {}
        for key, kind, default in _KEYS:
            value = (doc["params"] if key in _PARAMS else doc).get(key, default)
            if value is ...:
                raise KeyError(key)
            if not (type(value) is kind and (kind is not list or all(type(v) is str for v in value))
                    or value is None and default is None):
                name = "list of str" if kind is list else kind.__name__
                raise TypeError(f"{key} must be {name}, got {value!r}")
            fields[key] = tuple(value) if kind is list else dict(value) if kind is dict else value
        fields["witness"] = tuple(tuple(int(tok) for tok in line.split()) for line in fields["witness"])
        return SearchCertificate(**fields)
    except (AttributeError, KeyError, OverflowError, RecursionError, TypeError, ValueError) as e:
        raise MalformedCertificateError(f"malformed certificate: {e}") from None


def verify_certificate(cert: SearchCertificate) -> bool:
    """Re-verify a certificate from scratch.

    Raises MalformedCertificateError / AmbientMismatchError for certificates
    that cannot be interpreted; returns False when the witness or the claimed
    value fails re-verification.
    """
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
    if not is_m_general(ps, cert.m):
        return False
    if not is_m_general_arithmetic(ps, cert.m):
        return False
    return within_cap(cert.value, cert.n, field.q, cert.m)
