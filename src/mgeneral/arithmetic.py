"""Arithmetic characterization of m-general sets.

A set of any size is m-general exactly when no nontrivial zero-sum
relation sum c_i x_i = 0, sum c_i = 0 (an affine dependence) holds on at
most m of its distinct points.  This module provides that oracle
independently of the geometric rank computation, plus the weak
B_k / B_k predicates and the k-sum injectivity check that drives the
counting bound.

Coefficient vectors whose support has size <= 2 never have solutions in
distinct points (a single nonzero entry cannot sum to zero; two nonzero
entries force equality of two distinct points), so only supports of size
>= 3 matter.

`is_m_general_arithmetic`, `is_weak_bk`, `is_bk` and
`verify_ksum_injectivity` are one loop: hash weighted subset sums and stop
at the first repeat.  `weakly_avoids` runs the same sums for one form and
looks for the zero sum.  The oracle splits each relation in half (the k-sum
injectivity lemma), so it costs Theta(N^ceil(m/2) (q-1)^ceil(m/2)) hash
operations on N points rather than the Theta(N^m) of enumerating every
subset; that enumerative form is kept as the small-N reference
`m_general_by_forms` in `tests/oracles.py`.  The geometric oracle in
`affine` shares no code with this module: it runs Gaussian elimination
depth first over the subsets, Theta(N^(m-1)) row operations.  For q = 2,
m = 4 or 5 this oracle is a pair-XOR collision scan (with triple sums as
probes for m = 5), and the geometric one a separate pair-sum scan bucketed
by high bits; the rank-based cross-check for that case is
`tests/oracles.py`.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, combinations, permutations, product, repeat
from operator import add, xor
from typing import Callable, Iterable, Iterator, Sequence

from .affine import PointSet, _check_m_range, _point
from .field import Field

__all__ = [
    "CoeffVector",
    "apply_form",
    "sum_zero_vectors",
    "nonzero_sum_vectors",
    "count_nonzero_sum_vectors",
    "weakly_avoids",
    "is_m_general_arithmetic",
    "is_weak_bk",
    "is_bk",
    "verify_ksum_injectivity",
]

KIND_SUM_ZERO = "sum_zero"
KIND_NONZERO_SUM = "nonzero_sum"


@dataclass(frozen=True)
class CoeffVector:
    """A validated coefficient vector over F_q.

    kind `sum_zero`: entries sum to 0 and are not identically zero.
    kind `nonzero_sum`: every entry is nonzero and the entries sum to gamma.
    """

    field: Field
    coeffs: tuple[int, ...]
    kind: str
    gamma: int | None = None

    def __post_init__(self):
        f = self.field
        total = 0
        for c in self.coeffs:
            if not 0 <= c < f.q:
                raise ValueError(f"coefficient out of range: {c}")
            total = f.add(total, c)
        if self.kind == KIND_SUM_ZERO:
            if total != 0:
                raise ValueError("sum_zero vector: entries must sum to 0")
            if not any(self.coeffs):
                raise ValueError("sum_zero vector: entries must not be identically 0")
        elif self.kind == KIND_NONZERO_SUM:
            if any(c == 0 for c in self.coeffs):
                raise ValueError("nonzero_sum vector: all entries must be nonzero")
            if total != self.gamma:
                raise ValueError(f"nonzero_sum vector: entries sum to {total}, not {self.gamma}")
        else:
            raise ValueError(f"unknown coefficient vector kind: {self.kind}")

    @classmethod
    def sum_zero(cls, field: Field, coeffs: Sequence[int]) -> "CoeffVector":
        return cls(field, tuple(coeffs), KIND_SUM_ZERO)

    @classmethod
    def nonzero_sum(cls, field: Field, coeffs: Sequence[int], gamma: int) -> "CoeffVector":
        return cls(field, tuple(coeffs), KIND_NONZERO_SUM, gamma)

    def __len__(self) -> int:
        return len(self.coeffs)


def _combo(field: Field, coeffs: Sequence[int], pts: Sequence[tuple]) -> tuple:
    """The linear combination sum_j coeffs[j] * pts[j], coordinatewise."""
    n = len(pts[0])
    out = [0] * n
    for c, p in zip(coeffs, pts):
        if c == 0:
            continue
        for i in range(n):
            if p[i]:
                out[i] = field.add(out[i], field.mul(c, p[i]))
    return tuple(out)


def apply_form(c: CoeffVector, xs: Sequence[Sequence[int]]) -> tuple:
    """Evaluate the linear form given by c at a tuple of points of one
    F_q^n; ValueError for anything that is not such a point."""
    if len(xs) != len(c.coeffs):
        raise ValueError(f"form has {len(c.coeffs)} slots, got {len(xs)} points")
    pts = [tuple(p) for p in xs]
    if len({len(p) for p in pts}) != 1:
        raise ValueError("points must share an ambient dimension")
    return _combo(c.field, c.coeffs, [_point(c.field, len(pts[0]), p) for p in pts])


def _completions(field: Field, entries: Iterable[int], length: int, target: int) -> Iterator[tuple]:
    """Every prefix of length - 1 entries, in product order, completed by
    the last entry that makes the sum target."""
    for prefix in product(entries, repeat=length - 1):
        total = 0
        for c in prefix:
            total = field.add(total, c)
        yield prefix + (field.sub(target, total),)


def sum_zero_vectors(field: Field, t: int) -> Iterator[CoeffVector]:
    """All length-t vectors summing to 0, not identically 0; q^(t-1) - 1 of them."""
    if t < 2:
        raise ValueError(f"need t >= 2, got {t}")
    for coeffs in _completions(field, field.elements(), t, 0):
        if any(coeffs):
            yield CoeffVector(field, coeffs, KIND_SUM_ZERO)


def nonzero_sum_vectors(field: Field, k: int, gamma: int) -> Iterator[CoeffVector]:
    """All length-k vectors with every entry nonzero summing to gamma."""
    if k < 1:
        raise ValueError(f"need k >= 1, got {k}")
    for coeffs in _completions(field, range(1, field.q), k, gamma):
        if coeffs[-1]:
            yield CoeffVector(field, coeffs, KIND_NONZERO_SUM, gamma)


def count_nonzero_sum_vectors(q: int, k: int, gamma_is_zero: bool) -> int:
    """Exact count of length-k all-nonzero vectors with a fixed sum.

    Recurrence on (count for sum 0, count for any fixed nonzero sum): the
    last entry is either the missing amount or any other nonzero value.
    """
    zero_ct, nonzero_ct = 1, 0  # k = 0: only the empty vector sums to 0
    for _ in range(k):
        zero_ct, nonzero_ct = (q - 1) * nonzero_ct, zero_ct + (q - 2) * nonzero_ct
    return zero_ct if gamma_is_zero else nonzero_ct


def weakly_avoids(A: PointSet, c: CoeffVector) -> bool:
    """True iff no tuple of t distinct points of A satisfies the form = 0.

    Each distinct arrangement of the nonzero coefficients over each subset
    of A covers exactly the injective tuples; the lifted sums carry
    gamma = 0, so a solution is a weighted sum equal to the empty sum."""
    if c.kind != KIND_SUM_ZERO:
        raise ValueError("weakly_avoids expects a sum_zero coefficient vector")
    if c.field != A.field:
        raise ValueError(f"form over {c.field.q_spec}, set over {A.field.q_spec}")
    support = tuple(x for x in c.coeffs if x != 0)
    if len(support) <= 2:
        return True
    sums = _weighted_sums(A)
    zero = next(sums([()]))
    return zero not in sums(set(permutations(support)))


def _weighted_sums(A: PointSet) -> Callable[[Sequence[tuple]], Iterator]:
    """The weighted-sum enumerator over A that every collision test shares.

    Each point x is lifted to (1, x) in F_q^(n+1), so a weighted sum
    sum_t c_t (1, x_t) carries gamma = sum_t c_t as its first coordinate and
    a repeat between two distinct (coefficients, subset) pairs is a zero-sum
    relation on their union.  Sums are hashable codes: in characteristic 2
    the XOR of `PointSet.encode` codes (each coordinate takes d bits), for
    odd p the tuple of F_p digits, added digitwise.

    The returned sums(vectors) yields sum_t c_t (1, x_{i_t}) for every c in
    vectors, of any length j (the empty c gives 0 once), and every j-subset
    x_{i_1} < ... < x_{i_j} of A.
    """
    field = A.field
    if field.p == 2:
        plus, zero, code = xor, 0, A.encode
    else:
        reduced = [x % field.p for x in range(2 * field.p - 1)]
        digits = [field.coeff_vector(x) for x in field.elements()]
        zero = (0,) * (A.n + 1) * field.d

        def plus(u: tuple, v: tuple) -> tuple:
            return tuple(map(reduced.__getitem__, map(add, u, v)))

        def code(pt: Sequence[int]) -> tuple:
            return tuple(dig for x in pt for dig in digits[x])

    rows: dict[int, list] = {}

    def row(c: int) -> list:
        if c not in rows:
            scaled = A.points if c == 1 else [tuple(field.mul(c, x) for x in pt) for pt in A.points]
            rows[c] = [code((c,) + pt) for pt in scaled]
        return rows[c]

    def extend(acc, rs: list[list], start: int) -> Iterator:
        # acc plus every sum rs[0][i_1] + ... + rs[-1][i_r], start <= i_1 < ... < i_r
        if not rs:
            return iter((acc,))
        if len(rs) == 1:
            return map(plus, repeat(acc), rs[0][start:])
        stop = len(rs[0]) - len(rs) + 1
        return chain.from_iterable(
            extend(plus(acc, rs[0][i]), rs[1:], i + 1) for i in range(start, stop)
        )

    def sums(vectors: Sequence[tuple]) -> Iterator:
        return chain.from_iterable(extend(zero, [row(c) for c in cs], 0) for cs in vectors)

    return sums


def _collides(keys: Iterable, probes: Iterable = ()) -> bool:
    """Hash keys until one repeats, then look each probe up without
    inserting it; True at the first repeat or hit."""
    seen = set()
    for key in keys:
        if key in seen:
            return True
        seen.add(key)
    return any(key in seen for key in probes)


def _vectors(field: Field, j: int, gammas: Sequence[int]) -> list[tuple]:
    return [c.coeffs for g in gammas for c in nonzero_sum_vectors(field, j, g)]


def is_m_general_arithmetic(A: PointSet, m: int) -> bool:
    """The m-general test: no zero-sum relation on <= m distinct points.

    Meet in the middle (the k-sum injectivity lemma), k = floor(m/2): hash
    sum c_i (1, s_i) for every j-subset S, j <= min(k, |A|) (no c is built
    for a j > |A|, which has no subsets), and every all-nonzero c with
    gamma = sum c in {0, 1}; for odd m and k < |A|, probe with the
    (k+1)-subsets and gamma = 1 without inserting them.  A repeat is a nontrivial
    zero-sum relation on at most m distinct points.  Conversely a relation
    of support t <= m splits into halves of sizes floor(t/2) and ceil(t/2)
    whose sums agree, and scaling both by 1/gamma (gamma != 0) moves them
    into the hashed family.  When t = m is odd some split has gamma != 0:
    were every k-subset of coefficients to sum to 0, all coefficients would
    equal one c with k c = (2k+1) c = 0, so c = 0.  Neither direction
    counts the points of A or compares m with n, so the test decides every
    A, |A| >= 0 (below m: A affinely independent), for every
    3 <= m <= n + 2.  Cost: Theta(N^ceil(m/2) (q-1)^ceil(m/2)) hash
    operations.
    """
    _check_m_range(m, A.n)
    field, k = A.field, m // 2
    sums = _weighted_sums(A)
    keys = chain.from_iterable(sums(_vectors(field, j, (0, 1))) for j in range(1, min(k, len(A)) + 1))
    probes = sums(_vectors(field, k + 1, (1,))) if m % 2 and k < len(A) else ()
    return not _collides(keys, probes)


def is_weak_bk(A: PointSet, k: int) -> bool:
    """True iff all k-subsets of A (distinct elements) have distinct sums."""
    if k < 1:
        raise ValueError(f"need k >= 1, got {k}")
    return not _collides(_weighted_sums(A)([(1,) * k]))


def is_bk(A: PointSet, k: int) -> bool:
    """True iff all k-multisets of A have distinct sums up to permutation.

    In characteristic 2 a doubled element cancels, so multisets reducing to
    the same odd-multiplicity support are deemed trivially equal-sum (the
    a + a = b + b convention for Sidon sets in even characteristic): the
    sums compared are those of the subsets of sizes k, k-2, ..., 0 or 1.  In
    odd characteristic a multiset is a subset x_{i_1} < ... < x_{i_j} with
    multiplicities c, a composition of k, taken mod p as coefficients.
    Either way each multiset class is enumerated once, so a repeated sum
    is a collision.
    """
    if k < 1:
        raise ValueError(f"need k >= 1, got {k}")
    p = A.field.p
    if p == 2:
        vectors = [(1,) * j for j in range(k, -1, -2)]
    else:
        vectors = [
            tuple((b - a) % p for a, b in zip(cuts, cuts[1:]))
            for j in range(1, k + 1)
            for cuts in ((0, *inner, k) for inner in combinations(range(1, k), j - 1))
        ]
    return not _collides(_weighted_sums(A)(vectors))


def verify_ksum_injectivity(A: PointSet, k: int, gamma: int) -> bool:
    """Injectivity of (coefficients, increasing k-tuple) -> weighted sum.

    Coefficients range over all-nonzero length-k vectors summing to gamma
    and tuples over k-subsets of A in canonical order.  Holds whenever A is
    2k-general.  For q > 2 gamma must be nonzero; over F_2 the gamma = 0
    family is the all-ones vector for even k, recovering distinct k-subset
    sums.
    """
    field = A.field
    if field.q > 2 and gamma == 0:
        raise ValueError("gamma must be nonzero for q > 2")
    return not _collides(_weighted_sums(A)(_vectors(field, k, (gamma,))))
