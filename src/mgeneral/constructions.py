"""Lower-bound constructions for 4-general sets in F_2^n.

The graph {(x, f(x))} of an almost perfect nonlinear (APN) function on
GF(2^d), flattened to coefficient vectors, is a 4-general set of 2^d points
in F_2^{2d}; odd n append a zero coordinate.  One check verifies it, the
geometric oracle: the graph is 4-general exactly when f is APN (Carlet,
Charpin and Zinoviev, Des. Codes Cryptogr. 1998), so no APN check runs.
"""

from __future__ import annotations

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

    Restricted to characteristic 2, where the bound 2 is best possible.  A
    plain count of each row a, as constructions are checked by 4-generality.
    """
    F = f.field
    if F.p != 2:
        raise ValueError("APN check requires characteristic 2")
    v = f.values  # addition in GF(2^d) is XOR of element codes
    rows = (Counter(v[x ^ a] ^ v[x] for x in range(F.q)) for a in range(1, F.q))
    worst = max(max(row.values()) for row in rows)
    return ApnReport(worst <= 2, worst)


def cube_function(field: Field) -> FunctionTable:
    """The cubing map x -> x^3, APN over every GF(2^d)."""
    if field.p != 2:
        raise ValueError("cube construction requires characteristic 2")
    return FunctionTable(field, tuple(field.pow(x, 3) for x in field.elements()))


def sidon_graph(f: FunctionTable) -> PointSet:
    """Flatten {(x, f(x))} to F_2^{2d} via coefficient vectors, low degree first.

    The 2^d points are returned only if they are 4-general.  That is the APN
    test: four distinct points of F_2^N are dependent exactly when they sum
    to 0, which on the graph means two solution pairs x, x + a of
    f(x + a) + f(x) = b.  is_apn runs only to report a refusal.
    """
    F = f.field
    if F.p != 2:
        raise ValueError("APN check requires characteristic 2")
    pts = [F.coeff_vector(x) + F.coeff_vector(f.values[x]) for x in F.elements()]
    A = PointSet.of(make_field(2), 2 * F.d, pts)
    if not is_m_general(A, 4):
        raise ValueError(f"function is not APN (max solution count {is_apn(f).max_solutions})")
    return A


def lower_bound_4general(n: int) -> PointSet:
    """A verified 4-general set in F_2^n of size 2^(n//2): the Sidon graph of
    cubing on GF(2^(n//2)) with n % 2 trailing zero coordinates.  Appending a
    constant coordinate is an injective affine map, which keeps 4-generality.
    """
    if n < 2:
        raise ValueError(f"need n >= 2, got {n}")
    A = sidon_graph(cube_function(make_field(2, n // 2)))
    return PointSet.of(A.field, n, [p + (0,) for p in A.points]) if n % 2 else A
