"""Checks written from the definitions, sharing no code with `mgeneral`.

Field arithmetic is schoolbook polynomial arithmetic mod the modulus named
in a file's q-spec; affine independence is Gaussian elimination written
here; the special cases use their own tests (pair XORs for binary Sidon
sets, a + b + c = 0 for caps in F_3^n).  Bounds are recomputed from their
formulas: the counting cap exactly in integers with `math.comb`, Bennett's
minimum by bisection on the log-derivative of h (the package uses ternary
search on h itself).
"""

from __future__ import annotations

import math
import random
from bisect import bisect_left
from itertools import combinations, product


# -- GF(p^d) -------------------------------------------------------------------


class GF:
    """GF(p^d); elements are ints c_0 + c_1 p + ... (polynomial basis,
    low degree first), the encoding used by the set files."""

    def __init__(self, p: int, d: int, modulus):
        self.p, self.d, self.q = p, d, p**d
        self.modulus = tuple(modulus)
        if len(self.modulus) != d + 1 or self.modulus[-1] != 1:
            raise ValueError(f"modulus must be monic of degree {d}: {modulus}")
        q = self.q
        small = q <= 256  # tables for the fields the checks loop over
        self._add = [[self._add_slow(a, b) for b in range(q)] for a in range(q)] if small else None
        self._mul = [[self.mul_slow(a, b) for b in range(q)] for a in range(q)] if small else None
        self._neg = [self._neg_slow(a) for a in range(q)] if small else None
        self._inv = None

    def digits(self, a: int) -> list[int]:
        return [(a // self.p**i) % self.p for i in range(self.d)]

    def from_digits(self, ds) -> int:
        return sum(c * self.p**i for i, c in enumerate(ds))

    def _add_slow(self, a: int, b: int) -> int:
        return self.from_digits([(x + y) % self.p for x, y in zip(self.digits(a), self.digits(b))])

    def mul_slow(self, a: int, b: int) -> int:
        """Schoolbook product, then long division by the modulus."""
        p, d = self.p, self.d
        ca, cb = self.digits(a), self.digits(b)
        prod = [0] * (2 * d - 1)
        for i in range(d):
            for j in range(d):
                prod[i + j] = (prod[i + j] + ca[i] * cb[j]) % p
        for top in range(2 * d - 2, d - 1, -1):
            c = prod[top]
            if c:
                for i in range(d + 1):
                    prod[top - d + i] = (prod[top - d + i] - c * self.modulus[i]) % p
        return self.from_digits(prod[:d])

    def add(self, a: int, b: int) -> int:
        return self._add[a][b] if self._add is not None else self._add_slow(a, b)

    def _neg_slow(self, a: int) -> int:
        return self.from_digits([(-c) % self.p for c in self.digits(a)])

    def neg(self, a: int) -> int:
        return self._neg[a] if self._neg is not None else self._neg_slow(a)

    def sub(self, a: int, b: int) -> int:
        return self.add(a, self.neg(b))

    def mul(self, a: int, b: int) -> int:
        return self._mul[a][b] if self._mul is not None else self.mul_slow(a, b)

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("inverse of 0")
        if self._inv is None:
            self._inv = {}
            for x in range(1, self.q):
                for y in range(1, self.q):
                    if self.mul(x, y) == 1:
                        self._inv[x] = y
                        break
        return self._inv[a]


def parse_q_spec(spec: str) -> tuple[int, int, tuple[int, ...]]:
    """`p^d:modulus-id` -> (p, d, modulus coefficients low degree first)."""
    pd, mod_id = spec.split(":")
    p, d = (int(x) for x in pd.split("^"))
    mod_id = int(mod_id)
    coeffs = []
    for _ in range(d + 1):
        coeffs.append(mod_id % p)
        mod_id //= p
    if mod_id:
        raise ValueError(f"modulus id too large in {spec!r}")
    return p, d, tuple(coeffs)


def q_spec(p: int, d: int, modulus) -> str:
    return f"{p}^{d}:{sum(c * p**i for i, c in enumerate(modulus))}"


def is_irreducible(p: int, modulus) -> bool:
    """No monic factor of degree 1..d/2, by trial division of every candidate."""
    d = len(modulus) - 1
    for e in range(1, d // 2 + 1):
        for low in product(range(p), repeat=e):
            den = list(low) + [1]
            rem = list(modulus)
            for top in range(d, e - 1, -1):
                c = rem[top]
                if c:
                    for i in range(e + 1):
                        rem[top - e + i] = (rem[top - e + i] - c * den[i]) % p
            if not any(rem[:e]):
                return False
    return True


# -- set files -----------------------------------------------------------------


def read_set_text(text: str):
    """Parse a set file: returns (q_spec, n, m, points as int tuples)."""
    lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
    if not lines or lines[0] != "format=1":
        raise ValueError("set file must start with format=1")
    body = [ln for ln in lines[1:] if not ln.startswith("#")]
    spec, n, m = body[0].split()
    pts = [tuple(int(t) for t in ln.split()) for ln in body[1:]]
    return spec, int(n), int(m), pts


def set_text(spec: str, n: int, m: int, points, comment: str) -> str:
    lines = ["format=1", f"# {comment}", f"{spec} {n} {m}"]
    lines += [" ".join(str(c) for c in p) for p in sorted(points)]
    return "\n".join(lines) + "\n"


# -- m-general tests -------------------------------------------------------------


def code_of(p, q: int) -> int:
    """First coordinate most significant, so code order is lex order."""
    acc = 0
    for c in p:
        acc = acc * q + c
    return acc


def sidon_ok(codes) -> bool:
    """q = 2, m = 4: all pair XORs of distinct elements are distinct.  A
    bitmap over F_2^n keeps 2048-point sets to a few MB."""
    codes = list(codes)
    seen = bytearray(((1 << max(codes, default=0).bit_length()) >> 3) + 1)
    for i, a in enumerate(codes):
        for b in codes[i + 1 :]:
            s = a ^ b
            byte, bit = s >> 3, 1 << (s & 7)
            if seen[byte] & bit:
                return False
            seen[byte] |= bit
    return True


def cap_ok(points) -> bool:
    """F_3^n, m = 3: no distinct a, b, c with a + b + c = 0 coordinatewise."""
    pts = set(points)
    plist = sorted(pts)
    for i, a in enumerate(plist):
        for b in plist[i + 1 :]:
            c = tuple((-x - y) % 3 for x, y in zip(a, b))
            if c in pts:
                return False
    return True


def rank(gf: GF, pts) -> int:
    """Affine rank of pts: row rank of the differences to the first point."""
    base = pts[0]
    rows = [[gf.sub(c, b) for c, b in zip(p, base)] for p in pts[1:]]
    r = 0
    ncols = len(base)
    for col in range(ncols):
        piv = None
        for i in range(r, len(rows)):
            if rows[i][col]:
                piv = i
                break
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        inv = gf.inv(rows[r][col])
        rows[r] = [gf.mul(inv, v) for v in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][col]:
                f = rows[i][col]
                rows[i] = [gf.sub(v, gf.mul(f, w)) for v, w in zip(rows[i], rows[r])]
        r += 1
    return r


def independent(gf: GF, pts) -> bool:
    return rank(gf, pts) == len(pts) - 1


def m_general(gf: GF, points, m: int) -> bool:
    """Every min(m, |A|)-subset affinely independent (the definition)."""
    if gf.q == 2 and m == 4:
        return sidon_ok(code_of(p, 2) for p in points)
    if gf.q == 3 and gf.d == 1 and m == 3:
        return cap_ok(points)
    s = min(m, len(points))
    if s <= 2:
        return True
    return all(independent(gf, sub) for sub in combinations(sorted(points), s))


def can_join(gf: GF, points, p, m: int) -> bool:
    """Does points + {p} stay m-general, given points is?  Checks only the
    subsets through p; caps and binary Sidon sets use their closed forms."""
    members = set(points)
    if p in members:
        return False
    if gf.q == 3 and gf.d == 1 and m == 3:
        return all(tuple((-x - y) % 3 for x, y in zip(a, p)) not in members for a in points)
    if gf.q == 2 and m == 4:
        return all(tuple(x ^ y ^ z for x, y, z in zip(a, b, p)) not in members
                   for a, b in combinations(points, 2))
    s = min(m, len(points) + 1)
    if s <= 2:
        return True
    return all(independent(gf, rest + (p,)) for rest in combinations(points, s - 1))


def addable_points(gf: GF, n: int, points, m: int) -> list:
    """Ambient points that could be added to an m-general set.  Caps and
    binary Sidon sets use their closed forms; an empty list means the set
    is inclusion-maximal."""
    members = set(points)
    if gf.q == 3 and gf.d == 1 and m == 3:
        blocked = set(members)
        for a, b in combinations(points, 2):
            blocked.add(tuple((-x - y) % 3 for x, y in zip(a, b)))
        return [p for p in product(range(3), repeat=n) if p not in blocked]
    if gf.q == 2 and m == 4:
        codes = [code_of(p, 2) for p in points]
        blocked = set(codes)
        for a, b, c in combinations(codes, 3):
            blocked.add(a ^ b ^ c)
        return [p for p in product(range(2), repeat=n) if code_of(p, 2) not in blocked]
    return [p for p in product(range(gf.q), repeat=n) if can_join(gf, list(points), p, m)]


# -- inputs built from a seed ----------------------------------------------------


def random_m_general(gf: GF, n: int, m: int, size: int, rng: random.Random):
    """A random m-general set of exactly `size` points, grown greedily in a
    shuffled order and restarted if it gets stuck short of `size`."""
    ambient = list(product(range(gf.q), repeat=n))
    for _ in range(100):
        rng.shuffle(ambient)
        chosen: list = []
        for p in ambient:
            if can_join(gf, chosen, p, m):
                chosen.append(p)
                if len(chosen) == size:
                    return sorted(chosen)
    raise ValueError(f"no {m}-general set of size {size} found in GF({gf.q})^{n}")


def _positions(points, subset) -> tuple:
    return tuple(sorted(bisect_left(points, p) for p in subset))


def earliest_dependency(gf: GF, points, x, m: int) -> tuple:
    """The first dependent subset of points + {x} in the order the oracles
    scan: smallest size first (3..m), then lex order of the sorted points.
    Assumes `points` is m-general, so every dependency goes through x.
    Returns the subset, or () if points + {x} is m-general."""
    pts = sorted(points)
    if gf.q == 2 and m == 4:  # a ^ b ^ c = x; no three distinct points are dependent
        index = {code_of(p, 2): i for i, p in enumerate(pts)}
        cx = code_of(x, 2)
        codes = list(index)
        for i, a in enumerate(codes):
            for j in range(i + 1, len(codes)):
                k = index.get(a ^ codes[j] ^ cx)
                if k is not None and k > j:
                    return (pts[i], pts[j], pts[k], x)
        return ()
    if gf.q == 3 and gf.d == 1 and m == 3:  # a + b + x = 0
        index = {p: i for i, p in enumerate(pts)}
        for i, a in enumerate(pts):
            j = index.get(tuple((-u - v) % 3 for u, v in zip(a, x)))
            if j is not None and j > i:
                return (a, pts[j], x)
        return ()
    for s in range(3, min(m, len(pts) + 1) + 1):
        for rest in combinations(pts, s - 1):
            if not independent(gf, rest + (x,)):
                return rest + (x,)
    return ()


def late_violation(gf: GF, points, m: int):
    """A point x outside `points` whose first dependency (earliest_dependency)
    comes as late as possible: largest size first, then latest in lex order
    of index tuples.  Candidates are the points of the affine hulls of the
    (m-1)-subsets of the six lex-largest points.  Returns (x, that first
    dependent subset)."""
    pts = sorted(points)
    members = set(pts)
    best = None
    for rest in combinations(pts[-6:], m - 1):
        # x in the affine hull of rest: rest[0] + sum of multiples of the differences
        base = rest[0]
        diffs = [[gf.sub(c, b) for c, b in zip(r, base)] for r in rest[1:]]
        for coeffs in product(range(gf.q), repeat=len(diffs)):
            x = list(base)
            for c, dv in zip(coeffs, diffs):
                x = [gf.add(xi, gf.mul(c, di)) for xi, di in zip(x, dv)]
            x = tuple(x)
            if x in members:
                continue
            dep = earliest_dependency(gf, pts, x, m)
            key = (len(dep), _positions(sorted(members | {x}), dep))
            if best is None or key > best[0]:
                best = (key, x, dep)
    if best is None:
        raise ValueError("no late violation found")
    return best[1], best[2]


# -- the cube-graph construction -------------------------------------------------


def cube_graph(d: int, modulus) -> list[tuple]:
    """{(x, x^3)} over GF(2^d), both coordinates as coefficient vectors
    (low degree first), a 4-general set of 2^d points in F_2^(2d)."""
    gf = GF(2, d, modulus)
    pts = []
    for x in range(gf.q):
        y = gf.mul_slow(x, gf.mul_slow(x, x))
        pts.append(tuple(gf.digits(x)) + tuple(gf.digits(y)))
    return sorted(pts)


# -- bounds ------------------------------------------------------------------------


def coefficient_count(q: int, k: int) -> int:
    """L: length-k vectors over GF(q), every entry nonzero, summing to a
    fixed nonzero value (1), counted by enumeration over F_q as Z/qZ when q
    is prime or with GF(q) addition otherwise; 1 by convention for q = 2."""
    if q == 2:
        return 1
    gf = prime_power_field(q)
    count = 0
    for v in product(range(1, q), repeat=k):
        total = 0
        for c in v:
            total = gf.add(total, c)
        count += total == 1
    return count


def integer_cap(n: int, q: int, m: int) -> int:
    """max{x : L * C(x, k) <= q^n}, k = floor(m/2), in exact integers."""
    k = m // 2
    L = coefficient_count(q, k)
    target = q**n
    lo, hi = k - 1, k
    while L * math.comb(hi, k) <= target:
        lo, hi = hi, 2 * hi
    while hi - lo > 1:  # L*C(lo,k) <= target < L*C(hi,k)
        mid = (lo + hi) // 2
        if L * math.comb(mid, k) <= target:
            lo = mid
        else:
            hi = mid
    return lo


def refined_real(n: int, q: int, m: int) -> float:
    """The real root x >= k-1 of L * C(x, k) = q^n, bracketed by the integer
    cap and found by bisection in log space."""
    k = m // 2
    L = coefficient_count(q, k)
    cap = integer_cap(n, q, m)
    log_target = n * math.log(q) - math.log(L) + math.lgamma(k + 1)

    def f(x: float) -> float:
        return sum(math.log(x - i) for i in range(k)) - log_target

    lo, hi = float(cap), float(cap + 1)
    if f(lo) >= 0:  # cap = k - 1 makes C(x, k) = 0 at lo
        return lo
    for _ in range(200):
        mid = (lo + hi) / 2
        if mid in (lo, hi):
            break
        if f(mid) <= 0:
            lo = mid
        else:
            hi = mid
    return (lo + hi) / 2


def counting_bound(n: int, q: int, m: int) -> float:
    k = m // 2
    if q == 2:
        return math.exp(math.lgamma(k + 1) / k + n * math.log(2) / k) + k
    return k * math.exp(
        n * math.log(q) / k - (1 - 2 / k) * math.log(q - 1) - math.log(q - 2) / k
    )


def bennett_applies(q: int, m: int) -> bool:
    return q % 2 == 1 or (m % 2 == 0 and q % 2 == 0)


def h_min(q: int, m: int) -> tuple[float, float]:
    """(t*, min h) for h(t) = t^(-(q-1)/m) (1 + t + ... + t^(q-1)) on (0, 1).

    d/dt log h = 0  <=>  g(t) = m t S'(t) - (q-1) S(t) = 0 with S the
    geometric sum; g(0) < 0 < g(1) for m > 2 and g has one root there.
    """

    def g(t: float) -> float:
        s = sum(t**i for i in range(q))
        ds = sum(i * t ** (i - 1) for i in range(1, q))
        return m * t * ds - (q - 1) * s

    lo, hi = 0.0, 1.0
    for _ in range(200):
        mid = (lo + hi) / 2
        if mid in (lo, hi):
            break
        if g(mid) < 0:
            lo = mid
        else:
            hi = mid
    t = (lo + hi) / 2
    return t, t ** (-(q - 1) / m) * sum(t**i for i in range(q))


def bennett(n: int, q: int, m: int) -> tuple[float, float]:
    """(2m + m (min h)^n, t*)."""
    t, h = h_min(q, m)
    return 2 * m + m * math.exp(n * math.log(h)), t


def mu_bennett(q: int, m: int) -> float:
    return math.log(h_min(q, m)[1]) / math.log(q)


def table1_cell(q: int, m: int) -> str:
    """log_q(min h), rounded half up to 3 decimals, leading-dot style."""
    milli = math.floor(mu_bennett(q, m) * 1000 + 0.5)
    return f".{milli:03d}"


def table2_cell(m: int) -> str:
    """1/floor(m/2) rounded up at 3 decimals."""
    k = m // 2
    return f".{-(-1000 // k):03d}"


def matches_6(printed: str, value: float) -> bool:
    """Does a value printed with 6 significant digits agree with `value`?
    Allows half a unit in the sixth digit plus a hair for the last-bit
    difference between two ways of computing the same quantity."""
    x = float(printed)
    if value == 0:
        return x == 0
    ulp = 10 ** (math.floor(math.log10(abs(value))) - 5)
    return abs(x - value) <= 0.51 * ulp


# -- small fields used by the benchmark ------------------------------------------

# Moduli chosen here; every file carries its modulus in the q-spec, and the
# self-test checks irreducibility.
MODULI = {
    (2, 1): (0, 1),
    (2, 2): (1, 1, 1),
    (3, 1): (0, 1),
    (3, 2): (1, 0, 1),
    (5, 1): (0, 1),
    (7, 1): (0, 1),
    (2, 3): (1, 1, 0, 1),
    (11, 1): (0, 1),
}


def prime_power_field(q: int) -> GF:
    for (p, d), mod in MODULI.items():
        if p**d == q:
            return GF(p, d, mod)
    raise ValueError(f"no modulus listed for q={q}")
