"""Lower-bound constructions for 4-general sets in F_2^n.

The graph {(x, f(x))} of an almost perfect nonlinear function on GF(2^d)
is a Sidon set in GF(2^d)^2; flattening both coordinates to their
coefficient vectors gives a 4-general set of size 2^d in F_2^{2d}.  Odd
dimensions embed the next-lower even construction with a constant last
coordinate.
"""

from __future__ import annotations

from array import array
from collections import Counter
from dataclasses import dataclass

from .affine import PointSet, is_m_general
from .field import Field, make_field

__all__ = [
    "FunctionTable",
    "ApnReport",
    "is_apn",
    "cube_function",
    "sidon_graph",
    "lower_bound_4general",
]


@dataclass(frozen=True)
class FunctionTable:
    """A function GF(q) -> GF(q) as a lookup table: values[x] = f(x)."""

    field: Field
    values: tuple[int, ...]

    def __post_init__(self):
        q = self.field.q
        if len(self.values) != q:
            raise ValueError(f"table length {len(self.values)} != q = {q}")
        if any(not 0 <= v < q for v in self.values):
            raise ValueError("table entry out of field range")


@dataclass(frozen=True)
class ApnReport:
    is_apn: bool
    max_solutions: int

    def __bool__(self) -> bool:
        return self.is_apn


def is_apn(f: FunctionTable) -> ApnReport:
    """Check f(x+a) - f(x) = b has at most 2 solutions x for every a != 0, b.

    Restricted to characteristic 2, where the bound 2 is best possible.  The
    table is packed into one integer, one byte per entry for q <= 2^8 and two
    up to MAX_ORDER.  The nonzero a run in Gray-code order, so each translate
    x -> f(x + a) is the previous one with the entry blocks of one bit of a
    swapped, and row a of the difference table is the bytes of
    translate ^ table.  Its entries come in equal pairs (x and x + a), so a
    row with q/2 distinct values has every count 2; only other rows are
    counted.
    """
    F = f.field
    if F.p != 2:
        raise ValueError("APN check requires characteristic 2")
    q = F.q
    fmt = "B" if q <= 1 << 8 else "H"
    width = 8 * array(fmt).itemsize
    size = q * width // 8
    table = int.from_bytes(array(fmt, f.values).tobytes(), "little")
    swaps = []  # for bit v of a: shift, and the entries x with x & v == 0
    for j in range(F.d):
        shift = width << j
        repunit = ((1 << q * width) - 1) // ((1 << 2 * shift) - 1)
        swaps.append((shift, ((1 << shift) - 1) * repunit))
    worst, translate = 0, table
    for i in range(1, q):
        shift, mask = swaps[(i & -i).bit_length() - 1]
        translate = (translate & mask) << shift | (translate >> shift) & mask
        row = memoryview((translate ^ table).to_bytes(size, "little")).cast(fmt)
        top = 2 if len(set(row)) == q // 2 else max(Counter(row).values())
        if top > worst:
            worst = top
    return ApnReport(worst <= 2, worst)


def cube_function(field: Field) -> FunctionTable:
    """The cubing map x -> x^3, APN over every GF(2^d)."""
    if field.p != 2:
        raise ValueError("cube construction requires characteristic 2")
    return FunctionTable(field, tuple(field.pow(x, 3) for x in field.elements()))


def sidon_graph(f: FunctionTable) -> PointSet:
    """Flatten {(x, f(x))} to F_2^{2d} via coefficient vectors, low degree first.

    The input must pass the APN check; the output has 2^d points and is
    4-general.
    """
    report = is_apn(f)
    if not report.is_apn:
        raise ValueError(f"function is not APN (max solution count {report.max_solutions})")
    F = f.field
    f2 = make_field(2)
    pts = [F.coeff_vector(x) + F.coeff_vector(f.values[x]) for x in F.elements()]
    return PointSet.of(f2, 2 * F.d, pts)


def lower_bound_4general(n: int) -> PointSet:
    """A verified 4-general set in F_2^n of size 2^(n//2).

    Even n: the Sidon graph of cubing on GF(2^(n/2)).  Odd n: the (n-1)
    construction with a trailing 0 coordinate, which preserves 4-generality.
    """
    if n < 2:
        raise ValueError(f"need n >= 2, got {n}")
    if n % 2 == 0:
        A = sidon_graph(cube_function(make_field(2, n // 2)))
    else:
        base = lower_bound_4general(n - 1)
        A = PointSet.of(base.field, n, [p + (0,) for p in base.points])
    if not is_m_general(A, 4):
        raise AssertionError("construction failed 4-generality verification")
    return A
