"""Exact arithmetic in GF(p^d) with elements encoded as integers in [0, q).

An element c_0 + c_1*x + ... + c_{d-1}*x^{d-1} of the polynomial basis is
encoded as the integer c_0 + c_1*p + ... + c_{d-1}*p^{d-1}.  The integer
encoding doubles as the canonical total order on field elements, with 0
and 1 always the additive and multiplicative identities.

Multiplication and inversion go through log/antilog tables built once at
construction time, so a Field instance is immutable and cheap to share.

Radix conversions go through `_digits` and its inverse `_from_digits`,
least significant digit first, and trial division through `_prime_factors`.
A point of AG(n,q) is coded with its first coordinate most significant
(`affine.PointSet.encode`, `affine._decode`), so code order is lex order;
only `search._Flats.extend` encodes points itself, on its hot path.
"""

from __future__ import annotations

import functools
import os
from operator import index

__all__ = ["Field", "make_field", "load_modulus_table", "default_modulus"]

MAX_ORDER = 1 << 16

MODULUS_TABLE_ENV = "MGENERAL_MODULI"


def _digits(x: int, base: int, count: int) -> list[int]:
    """The count lowest base-`base` digits of x, least significant first."""
    digits = []
    for _ in range(count):
        digits.append(x % base)
        x //= base
    return digits


def _from_digits(digits, base: int) -> int:
    """Inverse of `_digits`: the int with these base-`base` digits."""
    acc, weight = 0, 1
    for c in digits:
        acc += c * weight
        weight *= base
    return acc


def _prime_factors(n: int) -> list[int]:
    """The distinct prime factors of n (none below 2), ascending."""
    factors, f = [], 2
    while f * f <= n:
        if n % f == 0:
            factors.append(f)
            while n % f == 0:
                n //= f
        f += 1
    if n > 1:
        factors.append(n)
    return factors


def _poly_rem(num, den, p: int) -> list[int]:
    """Remainder of num mod den, coefficient lists low-to-high."""
    num = list(num)
    dd = len(den) - 1
    inv_lead = pow(den[-1], -1, p)
    while True:
        while num and num[-1] == 0:
            num.pop()
        if len(num) - 1 < dd or not num:
            return num
        shift = len(num) - 1 - dd
        factor = (num[-1] * inv_lead) % p
        for i, c in enumerate(den):
            num[shift + i] = (num[shift + i] - factor * c) % p


def is_irreducible(coeffs, p: int) -> bool:
    """Exhaustive check for monic factors of degree 1..d/2 (degree 1 is the
    root test), adequate for the supported q <= 2^16."""
    d = len(coeffs) - 1
    if d < 1 or coeffs[-1] % p == 0:
        return False
    for e in range(1, d // 2 + 1):
        for v in range(p**e):
            if not _poly_rem(coeffs, _digits(v, p, e) + [1], p):
                return False
    return True


def _parse_table_lines(lines) -> dict[tuple[int, int], tuple[int, ...]]:
    table = {}
    for number, raw in enumerate(lines, 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        try:  # a token that is no integer, or fewer than two tokens
            p, d, *coeffs = map(int, line.split())
        except ValueError:
            raise ValueError(
                f"modulus table: line {number}: expected integers `p d c_0 ... c_d`, got {line!r}"
            ) from None
        if len(coeffs) != d + 1:
            raise ValueError(f"modulus table: line {number}: bad entry for p={p} d={d}")
        table[(p, d)] = tuple(coeffs)
    return table


def load_modulus_table(path: str) -> dict[tuple[int, int], tuple[int, ...]]:
    """Parse a modulus table file: one line per field `p d c_0 c_1 ... c_d`."""
    with open(path) as fh:
        return _parse_table_lines(fh)


@functools.cache
def _modulus_table(path: str) -> dict[tuple[int, int], tuple[int, ...]]:
    """(p, d) -> modulus coefficient tuple, low degree first: the packaged
    table with the entries of the file at path, if path is not empty, over it.

    Each path is read once per process, so a table file edited in place
    after its first use is not re-read; a new path is.
    """
    # through the package's loader, which reads a zipped package too
    text = __spec__.loader.get_data(os.path.join(os.path.dirname(__file__), "data", "moduli.txt")).decode()
    table = _parse_table_lines(text.splitlines())
    if path:
        table.update(load_modulus_table(path))
    return table


def _check_order(p: int, d: int) -> None:
    """Refuse (p, d) unless d >= 1, p^d <= MAX_ORDER and p is prime.  The sizes
    are tested first, without computing a huge p^d, and primality last."""
    if d < 1:
        raise ValueError(f"extension degree must be >= 1, got {d}")
    if p > MAX_ORDER or d >= MAX_ORDER.bit_length() or p**d > MAX_ORDER:
        raise ValueError(f"p^d outside supported range: {p}^{d} > {MAX_ORDER}")
    if _prime_factors(p) != [p]:
        raise ValueError(f"p not prime: {p}")


def default_modulus(p: int, d: int) -> tuple[int, ...]:
    """Default modulus for GF(p^d): x for d = 1, else the entry of the table
    named by MGENERAL_MODULI, read at every call, or of the shipped table."""
    _check_order(p, d)
    if d == 1:
        return (0, 1)
    try:
        return _modulus_table(os.environ.get(MODULUS_TABLE_ENV, ""))[(p, d)]
    except KeyError:
        raise ValueError(f"no default modulus for p={p} d={d}") from None


class Field:
    """The finite field GF(p^d) for q = p^d <= 2^16.

    Elements are plain ints in [0, q).  All operations are pure; instances
    are immutable after construction and safe to share between workers.
    """

    def __init__(self, p: int, d: int = 1, modulus=None):
        _check_order(p, d)
        q = p**d
        if modulus is None:
            modulus = default_modulus(p, d)
        modulus = tuple(int(c) % p for c in modulus)
        if len(modulus) != d + 1 or modulus[-1] != 1:
            raise ValueError(f"modulus must be monic of degree {d}: {modulus}")
        if not is_irreducible(modulus, p):
            raise ValueError(f"modulus reducible over F_{p}: {modulus}")
        self.p = p
        self.d = d
        self.q = q
        self.modulus = modulus
        # base-p integer encoding of the modulus polynomial (low-to-high);
        # for p = 2 also the bit mask `_mul_poly` reduces by
        self.modulus_id = _from_digits(modulus, p)
        self._build_tables()

    # -- construction helpers -------------------------------------------------

    def _mul_poly(self, a: int, b: int) -> int:
        """Reference product via polynomial arithmetic mod the modulus."""
        p, d = self.p, self.d
        if p == 2:
            prod = 0
            x = a
            while b:
                if b & 1:
                    prod ^= x
                x <<= 1
                b >>= 1
            for shift in range(prod.bit_length() - 1 - d, -1, -1):
                if prod >> (shift + d) & 1:
                    prod ^= self.modulus_id << shift
            return prod
        ca, cb = self.coeff_vector(a), self.coeff_vector(b)
        prod = [0] * (2 * d - 1)
        for i, ai in enumerate(ca):
            if ai:
                for j, bj in enumerate(cb):
                    prod[i + j] = (prod[i + j] + ai * bj) % p
        return _from_digits(_poly_rem(prod, self.modulus, p), p)

    def _build_tables(self) -> None:
        q = self.q
        order = q - 1
        prime_factors = _prime_factors(order)

        def pow_naive(a, e):
            acc, base = 1, a
            while e:
                if e & 1:
                    acc = self._mul_poly(acc, base)
                base = self._mul_poly(base, base)
                e >>= 1
            return acc

        g = None
        for cand in range(1, q):  # 1 generates only GF(2)'s group
            if all(pow_naive(cand, order // r) != 1 for r in prime_factors):
                g = cand
                break
        assert g is not None, "multiplicative group of a finite field is cyclic"
        exp = [1] * order
        log = [0] * q
        acc = 1
        for i in range(1, order):
            acc = self._mul_poly(acc, g)
            exp[i] = acc
            log[acc] = i
        self._exp, self._log = exp, log

    # -- arithmetic ------------------------------------------------------------

    def add(self, a: int, b: int) -> int:
        if self.d == 1:
            return (a + b) % self.p
        if self.p == 2:
            return a ^ b
        return self._digitwise(a, b, 1)

    def neg(self, a: int) -> int:
        return self.sub(0, a)

    def sub(self, a: int, b: int) -> int:
        if self.d == 1:
            return (a - b) % self.p
        if self.p == 2:
            return a ^ b
        return self._digitwise(a, b, -1)

    def _digitwise(self, a: int, b: int, sign: int) -> int:
        """a + sign * b for odd p and d > 1, sign 1 or -1: addition is
        digit-wise mod p, so digit k is (a // p^k + sign * (b // p^k)) mod p."""
        p, acc, mul = self.p, 0, 1
        for _ in range(self.d):
            acc += (a + sign * b) % p * mul
            a //= p
            b //= p
            mul *= p
        return acc

    def mul(self, a: int, b: int) -> int:
        if a == 0 or b == 0:
            return 0
        return self._exp[(self._log[a] + self._log[b]) % (self.q - 1)]

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("inv(0) is undefined")
        return self._exp[(self.q - 1 - self._log[a]) % (self.q - 1)]

    def pow(self, a: int, e: int) -> int:
        if e == 0:
            return 1
        if a == 0:
            if e < 0:
                raise ZeroDivisionError("inv(0) is undefined")
            return 0
        return self._exp[(self._log[a] * e) % (self.q - 1)]

    # -- structure -------------------------------------------------------------

    def elements(self) -> range:
        """All q elements in canonical (integer) order, starting at 0."""
        return range(self.q)

    def coeff_vector(self, a: int) -> tuple[int, ...]:
        """Coefficient view of an element, low degree first, length d."""
        if not 0 <= a < self.q:
            raise ValueError(f"element out of range: {a}")
        return tuple(_digits(a, self.p, self.d))

    def from_coeffs(self, coeffs) -> int:
        if len(coeffs) != self.d:
            raise ValueError(f"expected {self.d} coefficients, got {len(coeffs)}")
        for c in coeffs:
            if not 0 <= c < self.p:
                raise ValueError(f"coefficient out of range: {c}")
        return _from_digits(coeffs, self.p)

    @property
    def q_spec(self) -> str:
        """Self-contained field tag `p^d:modulus-id` used in all output files."""
        return f"{self.p}^{self.d}:{self.modulus_id}"

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Field)
            and (self.p, self.d, self.modulus) == (other.p, other.d, other.modulus)
        )

    def __hash__(self) -> int:
        return hash((self.p, self.d, self.modulus))

    def __repr__(self) -> str:
        return f"Field(p={self.p}, d={self.d}, modulus={self.modulus})"

    def __reduce__(self):
        # Rebuild through the cache; the default protocol would also
        # materialise the instance __dict__, which slows every later call.
        return make_field, (self.p, self.d, self.modulus)


# one Field per (p, d, modulus tuple) for the life of the process
_cached_field = functools.cache(Field)


def make_field(p: int, d: int = 1, modulus=None) -> Field:
    """Construct (or fetch a cached) GF(p^d); deterministic for given inputs."""
    if modulus is None:
        modulus = default_modulus(p, d)
    return _cached_field(p, d, tuple(modulus))


def field_for_order(q: int) -> Field:
    """GF(q) with the default modulus, factoring q = p^d."""
    if not 2 <= q <= MAX_ORDER:
        raise ValueError(f"q must be a prime power in [2, {MAX_ORDER}], got {q}")
    primes = _prime_factors(index(q))  # a float q, even 4.0, is a TypeError
    if len(primes) > 1:
        raise ValueError(f"q must be a prime power, got {q}")
    p, d = primes[0], 1
    while p**d < q:
        d += 1
    return make_field(p, d)


def field_from_q_spec(spec: str) -> Field:
    """Rebuild a field from its `p^d:modulus-id` tag."""
    try:
        pd, mod_id = spec.split(":")
        p_str, d_str = pd.split("^")
        p, d, mod_id = int(p_str), int(d_str), int(mod_id)
    except ValueError:
        raise ValueError(f"malformed q-spec: {spec!r}") from None
    _check_order(p, d)
    if mod_id < 0:
        raise ValueError(f"modulus id {mod_id} is negative")
    if mod_id >= p ** (d + 1):
        raise ValueError(f"modulus id {mod_id} too large for degree {d} over F_{p}")
    return make_field(p, d, _digits(mod_id, p, d + 1))
