"""Points of AG(n,q), affine rank, and the geometric m-general predicate.

A set is m-general when no m of its points lie on a common (m-2)-flat,
i.e. every m-subset is affinely independent.  For sets smaller than m the
predicate degrades to checking all size-|A| subsets: the unique hereditary
extension, which both oracles decide and the incremental search relies on.

Over F_2 a set is m-general exactly when it is 2 floor(m/2)-general, since
an affine relation there has even support (`_tested_m` gives the argument).
`is_m_general` and the search kernels test that m; `add_point_preserves`
and the arithmetic oracle test the requested one.

Packed rows.  `affine_rank`, `is_m_general` and `add_point_preserves`
eliminate on points of F_q^n packed one int each, through one codec per
(field, n) (`_row_codec`, cached).  Coordinate 0 sits in the top block of B
bits, so a row's leading coordinate is read from its bit length.  A
coordinate of GF(p^d) is d digit lanes of w bits, digit 0 lowest:
- p = 2: w = 1, so a coordinate is its element's code; a - b is a XOR b,
  which never carries.  Over GF(2^e), e > 1, scaling goes coordinate by
  coordinate through the field's log and antilog tables.
- odd p: every lane of a row fed to a reduction holds at most
  X = (p-1) + d (p-1)^2.  a - b is a + p - b, at most 2p - 1 a lane;
  r - c u is r + (-c mod p) u (over d > 1, a sum over the d digits of c of
  (p-1)-bounded digits times the rows x^j u), at most (p-1) + d (p-1)^2;
  r c^-1 is a sum of d digit products, at most d (p-1)^2.  One Barrett
  step t - ((t M >> S) & Q) p then reduces every lane mod p at once:
  `_barrett` picks M and S with floor(x M / 2^S) = floor(x / p) for
  0 <= x <= X, and w = bit_length(X M), so no lane's product with M
  reaches the next lane.  Each lane's quotient lies below 2^(w-S), in the
  low w - S bits that Q keeps, and the fraction bits of the lane above fall
  in the S top bits that Q drops.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Iterable, Sequence
from contextlib import contextmanager
from functools import cache, lru_cache
from operator import index, lshift, xor

from ._record import record
from .field import Field, _digits, _from_digits, field_from_q_spec

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
    try:
        x = tuple(map(index, p))
    except TypeError:
        raise ValueError(f"coordinate not an integer: {tuple(p)}") from None
    if len(x) != n:
        raise ValueError(f"point has {len(x)} coords, ambient needs {n}")
    if x and (min(x) < 0 or max(x) >= field.q):
        raise ValueError(f"coordinate out of range for q={field.q}: {x}")
    return x


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
        numeric order on codes equals lexicographic order on points; the
        inverse is `_decode(q, n, code)`."""
        return _from_digits(reversed(p), self.field.q)


def _decode(q: int, n: int, code: int) -> Point:
    """Inverse of PointSet.encode: the point of F_q^n whose base-q digits,
    first coordinate most significant, are code."""
    return tuple(reversed(_digits(code, q, n)))


def _barrett(p: int, bound: int) -> tuple[int, int]:
    """(M, S), S least, with (x * M) >> S == x // p for 0 <= x <= bound.

    With M = ceil(2^S / p) and e = M p - 2^S in [0, p), x M / 2^S is
    x / p + x e / (p 2^S).  Once bound * e < 2^S the second term is below
    1 / p, too little to carry x / p, whose fraction is at most (p-1) / p,
    past the next integer."""
    S = 1
    while True:
        M = -(-(1 << S) // p)
        if bound * (M * p - (1 << S)) < 1 << S:
            return M, S
        S += 1


@cache
def _row_codec(field: Field, n: int):
    """(pack, diff, unit, clear) on rows of F_q^n packed one int each, in the
    layout of the module docstring.  pack(point) is a point's row, diff(a, b)
    the row a - b, unit(r) r scaled to a leading 1 (0 stays 0), and
    clear(u, rows), for u with a leading 1, each row minus the multiple of u
    that zeroes it at u's leading coordinate.  Scalars are multiplied through
    the field's own log and antilog tables; no table the codec keeps grows
    with q."""
    p, d = field.p, field.d
    # c^-1 is exp[-log[c]]: a negative index -order <= i < 0 reads exp[i % order]
    exp, log, order = field._exp, field._log, field.q - 1
    if p == 2:
        w = 1
    else:
        bound = p - 1 + d * (p - 1) ** 2
        M, S = _barrett(p, bound)
        w = (bound * M).bit_length()
    B, L = d * w, (1 << w) - 1  # bits of a coordinate, of a lane
    coord = (1 << B) - 1
    shifts = [i * B for i in reversed(range(n))]  # coordinate 0 on top

    def pack(point):
        return sum(map(lshift, point, shifts))

    if p == 2 and d == 1:  # every nonzero coefficient is 1
        def clear(u, rows):
            bit = 1 << (u.bit_length() - 1)
            return [r ^ u if r & bit else r for r in rows]

        return pack, xor, index, clear

    if p == 2:  # a coordinate is its element's code
        def unit(r):
            if not r:
                return 0
            c = r >> (r.bit_length() - 1) // B * B
            if c == 1:
                return r
            lc = -log[c]
            return sum([exp[log[x] + lc] << s for s in shifts if (x := r >> s & coord)])

        def clear(u, rows):
            lead = (u.bit_length() - 1) // B * B
            terms = [(log[x] - order, s) for s in shifts if (x := u >> s & coord)]
            out = []
            for r in rows:
                c = r >> lead & coord
                if c:
                    lc = log[c]
                    for lx, s in terms:  # -order <= lx + lc < order
                        r ^= exp[lx + lc] << s
                out.append(r)
            return out

        return pack, xor, unit, clear

    ones = sum(1 << (i * w) for i in range(n * d))  # bit 0 of each lane
    qmask = ((1 << (w - S)) - 1) * ones  # each lane's quotient bits
    pones = p * ones

    def diff(a, b):
        t = a + pones - b
        return t - (t * M >> S & qmask) * p

    if d == 1:
        def unit(r):
            if not r:
                return 0
            c = r >> (r.bit_length() - 1) // B * B
            if c == 1:
                return r
            t = r * exp[-log[c]]  # c^-1
            return t - (t * M >> S & qmask) * p

        def clear(u, rows):
            lead = (u.bit_length() - 1) // B * B
            return [(t := r + (p - c) * u) - (t * M >> S & qmask) * p if (c := r >> lead & L) else r
                    for r in rows]

        return pack, diff, unit, clear

    lanes = [k * w for k in range(d)]
    digit0 = L * sum(1 << s for s in shifts)  # lane 0 of each coordinate
    high = digit0 << B - w  # lane d-1 of each coordinate
    low_x = sum(-c % p << k for c, k in zip(field.modulus, lanes))  # x^d, a coordinate

    def spread(c):  # c's digits, one a lane
        return sum(map(lshift, _digits(c, p, d), lanes))

    def powers(r):  # r, x r, ..., x^(d-1) r, coordinate by coordinate
        rs = [r]
        for _ in range(d - 1):
            t = ((r & ~high) << w) + ((r & high) >> B - w) * low_x
            r = t - (t * M >> S & qmask) * p
            rs.append(r)
        return rs

    @lru_cache(maxsize=256)  # the leads met last, not one entry per element
    def inverse(v):  # lanes of x^j c^-1 for j < d, c the element with lanes v
        return tuple(powers(spread(exp[-log[_from_digits([v >> k & L for k in lanes], p)]])))

    def unit(r):  # r c^-1: the digit-j lanes of r times x^j c^-1
        if not r:
            return 0
        v = r >> (r.bit_length() - 1) // B * B
        if v == 1:
            return r
        t = sum([(r >> k & digit0) * m for k, m in zip(lanes, inverse(v))])
        return t - (t * M >> S & qmask) * p

    def clear(u, rows):
        lead = (u.bit_length() - 1) // B * B
        ups = powers(u)
        out = []
        for r in rows:
            if r >> lead & coord:
                r += sum([-(r >> lead + k & L) % p * uj for k, uj in zip(lanes, ups)])
                r -= (r * M >> S & qmask) * p
            out.append(r)
        return out

    def pack_spread(point):
        return sum(map(lshift, map(spread, point), shifts))

    return pack_spread, diff, unit, clear


def affine_rank(ps: PointSet) -> int:
    """Dimension of the affine hull of the set.

    Each difference from the first point, reduced modulo the span of the
    earlier ones, is zero or a new pivot."""
    if not ps.points:
        raise ValueError("affine_rank: empty set")
    pack, diff, unit, clear = _row_codec(ps.field, ps.n)
    base, *others = map(pack, ps.points)
    rows = [diff(r, base) for r in others]
    rank = 0
    while rows:
        u = unit(rows[0])
        if u:
            rank += 1
            rows = clear(u, rows[1:])
        else:
            rows = rows[1:]
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


def _all_independent(codec, base: int, others: Sequence[int], size: int) -> bool:
    """Is base with each (size-1)-subset of others affinely independent?
    codec is `_row_codec(field, n)`, and base and others are packed rows.

    Gaussian elimination run depth first over the subsets in lexicographic
    order.  A node holds every later point's difference from base reduced
    modulo the span of the chosen differences, one row operation per child
    (pivot: the first nonzero coordinate); a zero residual is a dependent
    subset.  The residuals have zeros in every chosen pivot column, which
    makes each the unique such representative of its coset, so at the last
    level two picks are dependent exactly when their residuals are parallel:
    that level compares the residuals scaled to a leading 1 as one set.
    Needs size >= 3.
    """
    _, diff, unit, clear = codec

    def extend(rows, need):
        if need == 2:
            lines = set(map(unit, rows))
            return 0 not in lines and len(lines) == len(rows)
        for j in range(len(rows) - need + 1):
            u = unit(rows[j])
            if not u or not extend(clear(u, rows[j + 1 :]), need - 1):
                return False
        return True

    return extend([diff(r, base) for r in others], size - 1)


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
    codec = _row_codec(A.field, A.n)
    rows = list(map(codec[0], A.points))  # codec[0] packs a point
    return all(
        _all_independent(codec, r, rows[i + 1 :], s)
        for i, r in enumerate(rows[: len(rows) - s + 1])
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
    if s <= 2:
        return True
    codec = _row_codec(A.field, A.n)
    return _all_independent(codec, codec[0](p), list(map(codec[0], A.points)), s)


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
