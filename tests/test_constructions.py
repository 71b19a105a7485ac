import math
import random
from collections import Counter

import pytest

from mgeneral.affine import is_m_general
from mgeneral.arithmetic import is_weak_bk
from mgeneral.bounds import refined_bound
from mgeneral.constructions import (
    FunctionTable,
    cube_function,
    is_apn,
    lower_bound_4general,
    sidon_graph,
)
from mgeneral.field import make_field
from oracles import apn_by_counting, m_general_oracle, sidon_oracle_q2


def test_function_table_validation(f4):
    with pytest.raises(ValueError, match="length"):
        FunctionTable(f4, (0, 1, 2))
    with pytest.raises(ValueError, match="range"):
        FunctionTable(f4, (0, 1, 2, 4))


def test_cube_tables(f4):
    assert cube_function(make_field(2)).values == (0, 1)
    assert cube_function(f4).values == (0, 1, 1, 1)  # x^3 = 1 for x != 0 in GF(4)
    with pytest.raises(ValueError, match="characteristic 2"):
        cube_function(make_field(3))


@pytest.mark.parametrize("d", range(1, 9))
def test_cube_is_apn(d):
    report = is_apn(cube_function(make_field(2, d)))
    assert report.is_apn
    assert report.max_solutions == 2


@pytest.mark.parametrize("d", range(2, 9))
def test_square_and_identity_fail_apn(d):
    f = make_field(2, d)
    square = FunctionTable(f, tuple(f.mul(x, x) for x in f.elements()))
    rep = is_apn(square)
    assert not rep.is_apn and rep.max_solutions == f.q
    ident = FunctionTable(f, tuple(f.elements()))
    rep = is_apn(ident)
    assert not rep.is_apn and rep.max_solutions == f.q


def test_apn_matches_counting():
    # random tables (1-byte packing), cube, square and identity for d = 9, 10
    # (2-byte packing)
    rng = random.Random(404)
    tables = []
    for d in range(1, 8):
        f = make_field(2, d)
        tables += [FunctionTable(f, tuple(rng.randrange(f.q) for _ in range(f.q))) for _ in range(4)]
    for d in (9, 10):
        f = make_field(2, d)
        tables += [
            cube_function(f),
            FunctionTable(f, tuple(f.mul(x, x) for x in f.elements())),
            FunctionTable(f, tuple(f.elements())),
        ]
    verdicts = set()
    for table in tables:
        report = is_apn(table)
        assert (report.is_apn, report.max_solutions) == apn_by_counting(table), table.field
        verdicts.add(report.is_apn)
    assert verdicts == {True, False}


def test_apn_requires_char2(f3):
    with pytest.raises(ValueError, match="characteristic 2"):
        is_apn(FunctionTable(f3, (0, 1, 2)))


def test_quadratic_solution_counts():
    # for fixed a != 0, b:  a x^2 + a^2 x = b  has 0 or 2 solutions
    for d in range(1, 9):
        f = make_field(2, d)
        for a in range(1, f.q):
            counts = [0] * f.q
            for x in f.elements():
                val = f.add(f.mul(a, f.mul(x, x)), f.mul(f.mul(a, a), x))
                counts[val] += 1
            assert set(counts) <= {0, 2}, (d, a)


def test_sidon_graph_small(f4):
    g = sidon_graph(cube_function(f4))
    assert len(g) == 4 and g.n == 4 and g.field.q == 2
    assert is_m_general(g, 4)
    assert is_weak_bk(g, 2)
    assert g.points == ((0, 0, 0, 0), (0, 1, 1, 0), (1, 0, 1, 0), (1, 1, 1, 0))


def test_sidon_graph_d1_and_d3():
    g1 = sidon_graph(cube_function(make_field(2, 1)))
    assert len(g1) == 2 and is_m_general(g1, 4)
    g3 = sidon_graph(cube_function(make_field(2, 3)))
    assert len(g3) == 8 and g3.n == 6
    assert is_m_general(g3, 4)
    assert m_general_oracle(g3.field, g3.points, 4)


def test_sidon_graph_rejects_non_apn(f8):
    square = FunctionTable(f8, tuple(f8.mul(x, x) for x in f8.elements()))
    with pytest.raises(ValueError, match="not APN"):
        sidon_graph(square)


def test_sidon_graph_accepts_exactly_apn_tables():
    # sidon_graph checks only 4-generality; it must agree with the APN count
    rng = random.Random(1998)
    tables = []
    for d in range(1, 8):
        f = make_field(2, d)
        exponents = [2**i + 1 for i in range(1, d)]  # Gold: APN iff gcd(i, d) = 1
        exponents += [2**d - 2, 2]  # inverse: APN iff d is odd; x^2: never for d > 1
        tables += [FunctionTable(f, tuple(f.pow(x, e) for x in f.elements())) for e in exponents]
        tables += [FunctionTable(f, tuple(rng.randrange(f.q) for _ in range(f.q))) for _ in range(3)]
    verdicts = Counter()
    for table in tables:
        apn, worst = apn_by_counting(table)
        verdicts[apn] += 1
        if apn:
            assert len(sidon_graph(table)) == table.field.q
        else:
            with pytest.raises(ValueError) as refusal:
                sidon_graph(table)
            assert str(refusal.value) == f"function is not APN (max solution count {worst})"
    assert verdicts[True] >= 5 and verdicts[False] >= 5, verdicts


def test_lower_bound_sizes_small():
    for n in range(2, 13):
        A = lower_bound_4general(n)
        assert len(A) == 2 ** (n // 2)
        assert A.n == n
        assert len(A) >= 2 ** (n / 2) / math.sqrt(2)
    for n in range(3, 14, 2):  # odd n: the n - 1 set with a trailing 0 coordinate
        base = lower_bound_4general(n - 1)
        assert lower_bound_4general(n).points == tuple(p + (0,) for p in base.points)
    with pytest.raises(ValueError, match="n >= 2"):
        lower_bound_4general(1)


@pytest.mark.slow
def test_lower_bound_even_up_to_24():
    for n in range(2, 25, 2):
        A = lower_bound_4general(n)
        assert len(A) == 2 ** (n // 2)
        codes = [A.encode(p) for p in A.points]
        assert sidon_oracle_q2(codes)
        assert is_weak_bk(A, 2)
        assert len(A) <= refined_bound(n, 2, 4)


def test_construction_under_refined_bound():
    for n in range(2, 15):
        A = lower_bound_4general(n)
        assert len(A) <= refined_bound(n, 2, 4) + 1e-9
