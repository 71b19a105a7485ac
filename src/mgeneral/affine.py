"""Points of AG(n,q), affine rank, and the geometric m-general predicate.

A set is m-general when no m of its points lie on a common (m-2)-flat,
i.e. every m-subset is affinely independent.  For sets smaller than m the
predicate degrades to checking all size-|A| subsets: the unique hereditary
extension, which both oracles decide and the incremental search relies on.

Over F_2 a set is m-general exactly when it is 2 floor(m/2)-general, since
an affine relation there has even support (`_tested_m` gives the argument).
`is_m_general` and the search kernels test that m; `add_point_preserves`
and the arithmetic oracle test the requested one.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Iterable, Sequence
from contextlib import contextmanager
from itertools import repeat
from operator import index

from ._record import record
from .field import Field, field_from_q_spec

__all__ = [
    "PointSet",
    "affine_rank",
    "is_affinely_independent",
    "is_m_general",
    "add_point_preserves",
    "read_point_set",
    "write_point_set",
]

Point = tuple  # length-n tuple of canonical field-element ints

FORMAT_LINE = "format=1"


def _point(field: Field, n: int, p: Sequence[int]) -> Point:
    """p as a point of F_q^n: n canonical field elements, else ValueError."""
    p = tuple(p)
    try:
        p = tuple(map(index, p))
    except TypeError:
        raise ValueError(f"coordinate not an integer: {p}") from None
    if len(p) != n:
        raise ValueError(f"point has {len(p)} coords, ambient needs {n}")
    if any(not 0 <= c < field.q for c in p):
        raise ValueError(f"coordinate out of range for q={field.q}: {p}")
    return p


@record
class PointSet:
    """A duplicate-free set of points of F_q^n in canonical (lex) order."""

    field: Field
    n: int
    points: tuple[Point, ...]

    @classmethod
    def of(cls, field: Field, n: int, points: Iterable[Sequence[int]]) -> "PointSet":
        seen = set()
        pts = []
        for p in points:
            p = _point(field, n, p)
            if p not in seen:
                seen.add(p)
                pts.append(p)
        return cls(field, n, tuple(sorted(pts)))

    def __len__(self) -> int:
        return len(self.points)

    def __iter__(self):
        return iter(self.points)

    def __contains__(self, p) -> bool:
        return tuple(p) in self.points

    def with_point(self, p: Sequence[int]) -> "PointSet":
        return PointSet.of(self.field, self.n, self.points + (tuple(p),))

    def encode(self, p: Sequence[int]) -> int:
        """Integer encoding with the first coordinate most significant, so
        numeric order on codes equals lexicographic order on points."""
        acc = 0
        for c in p:
            acc = acc * self.field.q + c
        return acc


def _pivot_step(field: Field):
    """Gaussian elimination over field, one pivot at a time: returns
    (leading_one, clear).  leading_one(row) is (col, row scaled to 1 at col)
    for the first nonzero column col, or None for a zero row; clear(col,
    pivot, rows) subtracts from each row the multiple of pivot that zeroes
    its column col."""
    sub, mul, inv = field.sub, field.mul, field.inv

    def leading_one(row):
        for col, c in enumerate(row):
            if c:
                return col, tuple(map(mul, repeat(inv(c)), row))
        return None

    def clear(col, pivot, rows):
        return [
            tuple(map(sub, r, map(mul, repeat(r[col]), pivot))) if r[col] else r
            for r in rows
        ]

    return leading_one, clear


def affine_rank(ps: PointSet) -> int:
    """Dimension of the affine hull of the set.

    Each difference from the first point, reduced modulo the span of the
    earlier ones, is zero or a new pivot."""
    if not ps.points:
        raise ValueError("affine_rank: empty set")
    leading_one, clear = _pivot_step(ps.field)
    base = ps.points[0]
    rows = [tuple(map(ps.field.sub, p, base)) for p in ps.points[1:]]
    rank = 0
    while rows:
        lead = leading_one(rows[0])
        if lead is None:
            rows = rows[1:]
        else:
            rank += 1
            rows = clear(*lead, rows[1:])
    return rank


def is_affinely_independent(ps: PointSet) -> bool:
    if not ps.points:
        raise ValueError("is_affinely_independent: empty set")
    return affine_rank(ps) == len(ps) - 1


def _check_m_range(m: int, n: int) -> None:
    if not 3 <= m <= n + 2:
        raise ValueError(f"m out of range: need 3 <= m <= n+2, got m={m}, n={n}")


def _tested_m(field: Field, m: int) -> int:
    """The m whose test decides m-generality over field: 2 floor(m/2) over
    F_2, m otherwise.  Over F_2 the coefficients of an affine relation
    (sum c_i x_i = 0, sum c_i = 0) are 0 or 1 and sum to 0, so its support
    is an even number of points: a dependent subset of at most m points
    contains a dependent subset of even size, at most 2 floor(m/2)."""
    return m - m % 2 if field.q == 2 else m


# About this many pair sums go to one set in `_sidon_ok_char2`.
_BUCKET_PAIRS = 1 << 14


def _sidon_ok_char2(codes: Sequence[int], n: int) -> bool:
    """q = 2, tested m = 4: no two distinct pairs share an XOR (pairwise sum).

    More pairs than the 2^n - 1 nonzero sums always collide.  Otherwise the
    sums are bucketed by their high n - s bits, (a ^ b) >> s being
    (a >> s) ^ (b >> s): codes are grouped by c >> s, bucket h holds the
    pairs between groups t and t ^ h, and sums in different buckets differ.
    Each bucket's low s bits go through one list into one set, so a set
    holds at most min(2^s, the bucket's pairs) values; s leaves about
    _BUCKET_PAIRS pairs per bucket.
    """
    pairs = len(codes) * (len(codes) - 1) // 2
    if pairs.bit_length() > n:  # pairs >= 2^n; no 2^n-bit integer is built
        return False
    s = n - (pairs // _BUCKET_PAIRS).bit_length()
    groups: dict[int, list[int]] = {}
    for c in codes:
        t = c >> s
        groups.setdefault(t, []).append(c ^ (t << s))
    for h in range(1 << (n - s)):
        if h:
            sums = [x ^ y for t, g in groups.items() if (u := t ^ h) > t and u in groups
                    for x in g for y in groups[u]]
        else:
            sums = [x ^ y for g in groups.values() for i, x in enumerate(g, 1) for y in g[i:]]
        if len(set(sums)) < len(sums):
            return False
    return True


def _all_independent(field: Field, base: Point, others: Sequence[Point], size: int) -> bool:
    """Is base with each (size-1)-subset of others affinely independent?

    Gaussian elimination run depth first over the subsets in lexicographic
    order.  A node holds every later point's difference from base reduced
    modulo the span of the chosen differences, one row operation per child
    (pivot: the first nonzero column); a zero residual is a dependent subset.
    The residuals have zeros in every chosen pivot column, which makes each
    the unique such representative of its coset, so at the last level two
    picks are dependent exactly when their residuals are parallel: that level
    compares the residuals scaled to a leading 1 as one set.  Needs size >= 3.
    """
    leading_one, clear = _pivot_step(field)

    def extend(rows, need):
        if need == 2:
            lines = set(map(leading_one, rows))
            return None not in lines and len(lines) == len(rows)
        for j in range(len(rows) - need + 1):
            lead = leading_one(rows[j])
            if lead is None:
                return False
            if not extend(clear(*lead, rows[j + 1 :]), need - 1):
                return False
        return True

    return extend([tuple(map(field.sub, p, base)) for p in others], size - 1)


def is_m_general(A: PointSet, m: int) -> bool:
    """True iff every subset of size min(m, |A|) is affinely independent.

    For |A| >= m this is exactly the no-m-points-on-an-(m-2)-flat condition;
    affine independence is hereditary, so the single subset size suffices,
    and over F_2 that size may be taken at `_tested_m`.  Below m it says A
    is affinely independent, as `is_m_general_arithmetic` does too.
    """
    _check_m_range(m, A.n)
    m = _tested_m(A.field, m)
    if A.field.q == 2 and m == 4:
        return _sidon_ok_char2([A.encode(p) for p in A.points], A.n)
    s = min(m, len(A))
    if s <= 2:
        return True
    pts = A.points
    return all(
        _all_independent(A.field, p, pts[i + 1 :], s)
        for i, p in enumerate(pts[: len(pts) - s + 1])
    )


def add_point_preserves(A: PointSet, p: Sequence[int], m: int) -> bool:
    """Incremental test: does A + {p} stay m-general, checking only subsets
    through p?  Assumes A itself is already m-general.  A rank test at the
    requested m for every (q, m), independent of the search kernels."""
    _check_m_range(m, A.n)
    p = _point(A.field, A.n, p)
    if p in A:
        raise ValueError(f"point already in set: {p}")
    s = min(m, len(A) + 1)
    return s <= 2 or _all_independent(A.field, p, A.points, s)


# -- set files ----------------------------------------------------------------
#
# Line 1: `format=1`; then optional `#` comment lines; then a header
# `q-spec n m` with q-spec = `p^d:modulus-id`; then one point per line,
# coordinates as canonical integers separated by spaces, each point once.


@contextmanager
def _path_or_stream(target, mode: str = "r"):
    """`target` itself when it is already a stream, else the file at path
    `target` opened in `mode` (and closed on exit)."""
    if hasattr(target, "read" if mode == "r" else "write"):
        yield target
    else:
        with open(target, mode) as fh:
            yield fh


def write_point_set(path, A: PointSet, m: int, comments: Sequence[str] = ()) -> None:
    lines = [FORMAT_LINE]
    lines += [f"# {c}" for c in comments]
    lines.append(f"{A.field.q_spec} {A.n} {m}")
    lines += [" ".join(str(c) for c in p) for p in A.points]
    with _path_or_stream(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def _ints(line: int, text: str) -> tuple[int, ...]:
    """The space-separated integers of text, from line `line` of a set file."""
    try:
        return tuple(map(int, text.split()))
    except ValueError:
        raise ValueError(f"set file: line {line}: expected integers, got {text.strip()!r}") from None


def read_point_set(path) -> tuple[PointSet, int]:
    """Read a set file; returns (point set, declared m).  A point listed
    twice is refused, as is a token that is not an integer (named by its
    line)."""
    with _path_or_stream(path) as fh:
        text = fh.read()
    lines = [(i, ln) for i, ln in enumerate(text.splitlines(), 1) if ln.strip()]
    if not lines or lines[0][1].strip() != FORMAT_LINE:
        raise ValueError(f"set file must start with `{FORMAT_LINE}`")
    body = [(i, ln) for i, ln in lines[1:] if not ln.lstrip().startswith("#")]
    if not body:
        raise ValueError("set file missing header line `q-spec n m`")
    header = body[0][1].split()
    if len(header) != 3:
        raise ValueError(f"bad set file header: {body[0][1]!r}")
    field = field_from_q_spec(header[0])
    n, m = _ints(body[0][0], " ".join(header[1:]))
    pts = [_ints(i, ln) for i, ln in body[1:]]
    ps = PointSet.of(field, n, pts)
    if len(ps) < len(pts):
        repeated = next(p for p, count in Counter(pts).items() if count > 1)
        raise ValueError(f"set file repeats point {repeated}")
    return ps, m
