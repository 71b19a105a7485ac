import io
import random
from itertools import combinations, product

import pytest

from mgeneral.affine import (
    PointSet,
    add_point_preserves,
    affine_rank,
    is_affinely_independent,
    is_m_general,
    read_point_set,
    write_point_set,
)
from mgeneral.field import make_field
from oracles import dependent_by_enumeration, m_general_oracle, rank_oracle


def test_point_set_canonical_and_dedup(f3):
    a = PointSet.of(f3, 2, [(2, 1), (0, 0), (2, 1), (1, 2)])
    b = PointSet.of(f3, 2, [(1, 2), (2, 1), (0, 0)])
    assert a == b
    assert a.points == ((0, 0), (1, 2), (2, 1))
    assert len(a) == 3 and (1, 2) in a


def test_point_set_validation(f3):
    with pytest.raises(ValueError, match="coords"):
        PointSet.of(f3, 2, [(1,)])
    with pytest.raises(ValueError, match="range"):
        PointSet.of(f3, 2, [(1, 3)])


def test_affine_rank_examples(f3):
    assert affine_rank(PointSet.of(f3, 2, [(1, 2)])) == 0
    assert affine_rank(PointSet.of(f3, 1, [(0,), (1,), (2,)])) == 1
    assert affine_rank(PointSet.of(f3, 2, [(0, 0), (1, 0), (0, 1)])) == 2
    with pytest.raises(ValueError, match="empty"):
        affine_rank(PointSet.of(f3, 2, []))


def test_affinely_independent_examples(f3, f5):
    assert is_affinely_independent(PointSet.of(f3, 2, [(0, 1), (2, 2)]))
    assert not is_affinely_independent(PointSet.of(f3, 1, [(0,), (1,), (2,)]))
    four = PointSet.of(f5, 2, [(0, 0), (1, 0), (0, 1), (2, 3)])
    assert not is_affinely_independent(four)  # rank capped at n = 2 < 3


def test_rank_against_oracles(f2, f3, f5):
    rng = random.Random(4821)
    for field in (f2, f3, f5):
        for _ in range(40):
            n = rng.randint(1, 3)
            k = rng.randint(1, min(4, field.q**n))
            pts = rng.sample(list(product(range(field.q), repeat=n)), k)
            ps = PointSet.of(field, n, pts)
            assert affine_rank(ps) == rank_oracle(field, ps.points)
            if len(ps) <= 4:
                dep = dependent_by_enumeration(field, ps.points)
                assert is_affinely_independent(ps) == (not dep)


def test_rank_invariant_under_permutation_and_base_point(f5):
    rng = random.Random(99)
    pts = [(1, 2), (3, 3), (0, 4), (2, 0)]
    ranks = set()
    for _ in range(6):
        rng.shuffle(pts)
        ranks.add(affine_rank(PointSet.of(f5, 2, pts)))
    assert len(ranks) == 1


def test_m_general_known_counterexamples(f3, f5):
    assert not is_m_general(PointSet.of(f5, 1, [(1,), (2,), (4,)]), 3)
    quad = PointSet.of(f5, 2, [(1, 0), (0, 1), (2, 0), (0, 2)])
    assert not is_m_general(quad, 4)
    assert is_m_general(PointSet.of(f3, 2, [(0, 0), (1, 0), (0, 1)]), 3)


def test_m_range_validated(f3):
    ps = PointSet.of(f3, 2, [(0, 0), (1, 1)])
    with pytest.raises(ValueError, match="m out of range"):
        is_m_general(ps, 2)
    with pytest.raises(ValueError, match="m out of range"):
        is_m_general(ps, 5)


def test_small_sets_use_own_size(f3):
    # fewer than m points: all size-|A| subsets checked instead
    assert is_m_general(PointSet.of(f3, 2, []), 3)
    assert is_m_general(PointSet.of(f3, 2, [(1, 1)]), 3)
    assert is_m_general(PointSet.of(f3, 2, [(0, 0), (1, 0), (0, 1)]), 4)
    assert not is_m_general(PointSet.of(f3, 1, [(0,), (1,), (2,)]), 3)


def test_monotone_in_m(f2, f3):
    rng = random.Random(7)
    for field, n in [(f2, 4), (f3, 3)]:
        space = list(product(range(field.q), repeat=n))
        for _ in range(25):
            pts = rng.sample(space, rng.randint(4, min(8, len(space))))
            ps = PointSet.of(field, n, pts)
            for m in range(4, n + 3):
                if is_m_general(ps, m):
                    assert is_m_general(ps, m - 1)


def test_heredity_of_independence(f3, f5):
    rng = random.Random(11)
    for field in (f3, f5):
        space = list(product(range(field.q), repeat=3))
        for _ in range(20):
            pts = rng.sample(space, 4)
            ps = PointSet.of(field, 3, pts)
            if is_affinely_independent(ps):
                for k in range(1, len(ps)):
                    for sub in combinations(ps.points, k):
                        assert is_affinely_independent(PointSet.of(field, 3, sub))


def test_affine_map_invariance(f3, f5):
    rng = random.Random(23)
    for field in (f3, f5):
        n = 2
        space = list(product(range(field.q), repeat=n))
        for _ in range(20):
            pts = rng.sample(space, rng.randint(3, 6))
            ps = PointSet.of(field, n, pts)
            # random invertible M and translation b
            while True:
                M = [[rng.randrange(field.q) for _ in range(n)] for _ in range(n)]
                det = field.sub(
                    field.mul(M[0][0], M[1][1]), field.mul(M[0][1], M[1][0])
                )
                if det != 0:
                    break
            b = [rng.randrange(field.q) for _ in range(n)]

            def apply(pt):
                out = []
                for i in range(n):
                    acc = b[i]
                    for j in range(n):
                        acc = field.add(acc, field.mul(M[i][j], pt[j]))
                    out.append(acc)
                return tuple(out)

            image = PointSet.of(field, n, [apply(p) for p in ps])
            for m in (3, 4):
                assert is_m_general(ps, m) == is_m_general(image, m)


def test_fast_path_matches_generic_q2_m4(f2):
    # exhaustive over F_2^3, then random over F_2^4
    space3 = list(product(range(2), repeat=3))
    for r in range(len(space3) + 1):
        for sub in combinations(space3, r):
            ps = PointSet.of(f2, 3, sub)
            assert is_m_general(ps, 4) == m_general_oracle(f2, ps.points, 4)
    rng = random.Random(31)
    space4 = list(product(range(2), repeat=4))
    for _ in range(60):
        pts = rng.sample(space4, rng.randint(1, 9))
        ps = PointSet.of(f2, 4, pts)
        assert is_m_general(ps, 4) == m_general_oracle(f2, ps.points, 4)
    # few points in a large ambient: the pair XORs go to a set, not a bitmap
    space8 = list(product(range(2), repeat=8))
    verdicts = set()
    for i in range(60):
        pts = rng.sample(space8, rng.randint(4, 5))
        if i % 2:  # a + b + c + d = 0: four points on a plane
            pts[3] = tuple(a ^ b ^ c for a, b, c in zip(*pts[:3]))
        ps = PointSet.of(f2, 8, pts)
        verdict = is_m_general(ps, 4)
        assert verdict == m_general_oracle(f2, ps.points, 4)
        verdicts.add(verdict)
    assert verdicts == {True, False}


def test_add_point_preserves_examples(f3):
    A = PointSet.of(f3, 1, [(0,), (1,)])
    assert add_point_preserves(A, (2,), 3) is False  # completes the line
    B = PointSet.of(f3, 2, [(0, 0)])
    assert add_point_preserves(B, (1, 1), 3) is True
    with pytest.raises(ValueError, match="already"):
        add_point_preserves(B, (0, 0), 3)


def test_add_point_matches_full_recheck(f2, f3, f4, f5):
    rng = random.Random(137)
    for field in (f2, f3, f4, f5):
        for _ in range(30):
            n = rng.randint(1, 4)
            space = list(product(range(field.q), repeat=n))
            m = rng.randint(3, n + 2)
            # grow a random m-general set
            pts = []
            for cand in rng.sample(space, min(len(space), 8 + m)):
                trial = PointSet.of(field, n, pts + [cand])
                if is_m_general(trial, m) and len(pts) < 8:
                    pts.append(cand)
            A = PointSet.of(field, n, pts)
            outside = [p for p in space if p not in A]
            if not outside:
                continue
            cand = rng.choice(outside)
            incremental = add_point_preserves(A, cand, m)
            full = is_m_general(A.with_point(cand), m)
            assert incremental == full, (field.q, n, m, pts, cand)


def test_point_file_round_trip(f9, tmp_path):
    ps = PointSet.of(f9, 2, [(0, 0), (1, 5), (8, 2)])
    path = tmp_path / "set.txt"
    write_point_set(path, ps, 3, comments=["example"])
    loaded, m = read_point_set(path)
    assert loaded == ps and m == 3
    buf = io.StringIO()
    write_point_set(buf, ps, 4)
    buf.seek(0)
    loaded2, m2 = read_point_set(buf)
    assert loaded2 == ps and m2 == 4


def test_point_file_errors(tmp_path):
    bad = tmp_path / "bad.txt"
    bad.write_text("not a set file\n")
    with pytest.raises(ValueError, match="format=1"):
        read_point_set(bad)
    bad.write_text("format=1\n# comment only\n")
    with pytest.raises(ValueError, match="header"):
        read_point_set(bad)
