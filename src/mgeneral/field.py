"""Exact arithmetic in GF(p^d) with elements encoded as integers in [0, q).

An element c_0 + c_1*x + ... + c_{d-1}*x^{d-1} of the polynomial basis is
encoded as the integer c_0 + c_1*p + ... + c_{d-1}*p^{d-1}.  The integer
encoding doubles as the canonical total order on field elements, with 0
and 1 always the additive and multiplicative identities.

Multiplication and inversion go through log/antilog tables built once at
construction time, so a Field instance is immutable and cheap to share.
"""

from __future__ import annotations

import functools
import os

__all__ = ["Field", "make_field", "load_modulus_table", "default_modulus"]

MAX_ORDER = 1 << 16

MODULUS_TABLE_ENV = "MGENERAL_MODULI"


def _is_prime(p: int) -> bool:
    if p < 2:
        return False
    i = 2
    while i * i <= p:
        if p % i == 0:
            return False
        i += 1
    return True


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
            den, t = [], v
            for _ in range(e):
                den.append(t % p)
                t //= p
            den.append(1)
            if not _poly_rem(coeffs, den, p):
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
    if not _is_prime(p):
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
            mod_int = sum(c << i for i, c in enumerate(self.modulus))
            for shift in range(prod.bit_length() - 1 - d, -1, -1):
                if prod >> (shift + d) & 1:
                    prod ^= mod_int << shift
            return prod
        ca, cb = self.coeff_vector(a), self.coeff_vector(b)
        prod = [0] * (2 * d - 1)
        for i, ai in enumerate(ca):
            if ai:
                for j, bj in enumerate(cb):
                    prod[i + j] = (prod[i + j] + ai * bj) % p
        rem = _poly_rem(prod, self.modulus, p)
        return sum(c * p**i for i, c in enumerate(rem))

    def _build_tables(self) -> None:
        q = self.q
        order = q - 1
        prime_factors = []
        t, f = order, 2
        while f * f <= t:
            if t % f == 0:
                prime_factors.append(f)
                while t % f == 0:
                    t //= f
            f += 1
        if t > 1:
            prime_factors.append(t)

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
        p, acc, mul, x, y = self.p, 0, 1, a, b
        for _ in range(self.d):
            acc += ((x + y) % p) * mul
            x //= p
            y //= p
            mul *= p
        return acc

    def neg(self, a: int) -> int:
        return self.sub(0, a)

    def sub(self, a: int, b: int) -> int:
        if self.d == 1:
            return (a - b) % self.p
        if self.p == 2:
            return a ^ b
        p, acc, mul, x, y = self.p, 0, 1, a, b
        for _ in range(self.d):
            acc += ((x - y) % p) * mul
            x //= p
            y //= p
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
        coeffs, p = [], self.p
        for _ in range(self.d):
            coeffs.append(a % p)
            a //= p
        return tuple(coeffs)

    def from_coeffs(self, coeffs) -> int:
        if len(coeffs) != self.d:
            raise ValueError(f"expected {self.d} coefficients, got {len(coeffs)}")
        acc, mul = 0, 1
        for c in coeffs:
            if not 0 <= c < self.p:
                raise ValueError(f"coefficient out of range: {c}")
            acc += c * mul
            mul *= self.p
        return acc

    @property
    def modulus_id(self) -> int:
        """Base-p integer encoding of the modulus polynomial (low-to-high)."""
        return sum(c * self.p**i for i, c in enumerate(self.modulus))

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
    p = next(i for i in range(2, q + 1) if q % i == 0)
    d, t = 0, q
    while t % p == 0:
        t //= p
        d += 1
    if t != 1:
        raise ValueError(f"q must be a prime power, got {q}")
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
    coeffs, t = [], mod_id
    for _ in range(d + 1):
        coeffs.append(t % p)
        t //= p
    if t:
        raise ValueError(f"modulus id {mod_id} too large for degree {d} over F_{p}")
    return make_field(p, d, coeffs)
