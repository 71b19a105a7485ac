import io
import random
from itertools import combinations, product

import pytest

from mgeneral.affine import (
    _BUCKET_PAIRS,
    PointSet,
    _sidon_ok_char2,
    add_point_preserves,
    affine_rank,
    is_affinely_independent,
    is_m_general,
    read_point_set,
    write_point_set,
)
from mgeneral.constructions import lower_bound_4general
from mgeneral.field import make_field
from oracles import dependent_by_enumeration, m_general_oracle, rank_oracle, sidon_oracle_q2


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
    for bad in [(1.7, 2.9), ("1", "2"), (1, None)]:  # refused, not truncated to (1, 2)
        with pytest.raises(ValueError, match="coordinate not an integer"):
            PointSet.of(f3, 2, [bad])
    # a message shows the point as given when a coordinate is no integer, else as integers
    for bad, message in [([1.0, 2], "coordinate not an integer: (1.0, 2)"),
                         ([-1, 2], "coordinate out of range for q=3: (-1, 2)"),
                         ((True, 3), "coordinate out of range for q=3: (1, 3)")]:
        with pytest.raises(ValueError) as err:
            PointSet.of(f3, 2, [bad])
        assert str(err.value) == message


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


def test_rank_against_oracles(f2, f3, f4, f5, f8, f9):
    # up to 7 points in n <= 4 over GF(4), GF(8), GF(9): rows reduce to zero
    # mid-elimination
    rng = random.Random(4821)
    dependent = 0
    for field, max_n, max_k in ((f2, 3, 4), (f3, 3, 4), (f5, 3, 4), (f4, 4, 7), (f8, 4, 7), (f9, 4, 7)):
        for _ in range(40):
            n = rng.randint(1, max_n)
            k = rng.randint(1, min(max_k, field.q**n))
            pts = rng.sample(list(product(range(field.q), repeat=n)), k)
            ps = PointSet.of(field, n, pts)
            rank = affine_rank(ps)
            assert rank == rank_oracle(field, ps.points)
            dependent += rank < len(ps) - 1
            if len(ps) <= 4:
                dep = dependent_by_enumeration(field, ps.points)
                assert is_affinely_independent(ps) == (not dep)
    assert dependent >= 60, dependent


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
    """Over F_2 `is_m_general` tests 2 floor(m/2): the pair-sum scan for
    m = 4, 5, nothing for m = 3, the rank path for m = 6, 7.  Each m in
    3..min(7, n+2) is compared against the rank oracle at the requested m."""

    def agree(ps):
        for m in range(3, min(7, ps.n + 2) + 1):
            assert is_m_general(ps, m) == m_general_oracle(f2, ps.points, m), (ps.points, m)
        return is_m_general(ps, 4)

    # exhaustive over F_2^3, then random over F_2^4
    space3 = list(product(range(2), repeat=3))
    for r in range(len(space3) + 1):
        for sub in combinations(space3, r):
            agree(PointSet.of(f2, 3, sub))
    rng = random.Random(31)
    space4 = list(product(range(2), repeat=4))
    for _ in range(60):
        pts = rng.sample(space4, rng.randint(1, 9))
        agree(PointSet.of(f2, 4, pts))
    # few points in a large ambient: one bucket holds every pair sum
    space8 = list(product(range(2), repeat=8))
    verdicts = set()
    for i in range(60):
        pts = rng.sample(space8, rng.randint(4, 5))
        if i % 2:  # a + b + c + d = 0: four points on a plane
            pts[3] = tuple(a ^ b ^ c for a, b, c in zip(*pts[:3]))
        verdicts.add(agree(PointSet.of(f2, 8, pts)))
    assert verdicts == {True, False}


def _codes(A):
    return [A.encode(p) for p in A.points]


def _colliding_sums(codes):
    """Pair sums shared by two distinct pairs."""
    seen, hits = set(), set()
    for i, a in enumerate(codes):
        for b in codes[i + 1 :]:
            (hits if a ^ b in seen else seen).add(a ^ b)
    return hits


def test_sidon_scan_multi_bucket_constructions():
    rng = random.Random(613)
    for n in (16, 17, 18):
        codes = _codes(lower_bound_4general(n))
        assert len(codes) * (len(codes) - 1) // 2 > _BUCKET_PAIRS  # several buckets
        assert _sidon_ok_char2(codes, n) and sidon_oracle_q2(codes)
        # plus x = a ^ b ^ c, whose sum with c repeats a ^ b, which has its
        # top bit set and so lies in a bucket h != 0
        tried = 0
        while tried < 3:
            a, b, c = rng.sample(codes, 3)
            x = a ^ b ^ c
            if not (a ^ b) >> (n - 1) or x in codes:
                continue
            tried += 1
            assert _sidon_ok_char2(codes + [x], n) is sidon_oracle_q2(codes + [x]) is False
    # codes that share their high bits (leading zeros) or low bits (odd n)
    base = lower_bound_4general(16)
    high = PointSet.of(base.field, 20, [(0,) * 4 + p for p in base.points])
    low = lower_bound_4general(17)
    for A in (high, low):
        codes = _codes(A)
        assert is_m_general(A, 4) and sidon_oracle_q2(codes)
        x = codes[0] ^ codes[5] ^ codes[9]
        assert _sidon_ok_char2(codes + [x], A.n) is sidon_oracle_q2(codes + [x]) is False


def test_sidon_scan_collision_only_outside_bucket_zero():
    # sparse random codes plus x = a ^ b ^ c: every collision of the negative
    # has a nonzero top-two-bit part, and there are at least four buckets
    # (the three sums of a 4-point relation XOR to 0, so with two buckets
    # one of them is always in bucket 0)
    rng = random.Random(8)
    verdicts = []
    for n, size in ((34, 400), (40, 600)):
        assert size * (size - 1) // 2 >= 2 * _BUCKET_PAIRS
        while True:
            codes = rng.sample(range(1 << n), size)
            if not _colliding_sums(codes):
                break
        assert _sidon_ok_char2(codes, n)
        while True:
            a, b, c = rng.sample(codes, 3)
            if len({a >> (n - 2), b >> (n - 2), c >> (n - 2)}) < 3 or a ^ b ^ c in codes:
                continue
            neg = codes + [a ^ b ^ c]
            if all(h >> (n - 2) for h in _colliding_sums(neg)):
                break
        verdicts.append(_sidon_ok_char2(neg, n))
        assert sidon_oracle_q2(neg) is False
    assert verdicts == [False, False]


def test_sidon_scan_pigeonhole():
    # more pairs than the 2^n - 1 nonzero sums
    assert _sidon_ok_char2(list(range(12)), 6) is sidon_oracle_q2(list(range(12))) is False
    # exactly 2^n - 1 pairs is allowed
    assert _sidon_ok_char2([0, 1], 1) and _sidon_ok_char2([], 3)
    # neither test nor scan builds a 2^n-bit integer
    assert _sidon_ok_char2([0, 1, 2], 10**20) and not _sidon_ok_char2([0, 1, 2, 3], 10**20)


def test_generic_m_general_matches_oracle():
    rng = random.Random(2718)
    fields = [make_field(3), make_field(2, 2), make_field(5), make_field(7),
              make_field(2, 3), make_field(3, 2)]
    verdicts = {True: 0, False: 0}
    small_dependency = 0
    for field in fields:
        q = field.q
        for n in range(1, 5):
            for m in range(3, n + 3):
                for _ in range(3):
                    k = rng.randint(0, min(10, q**n))
                    pts = [tuple(rng.randrange(q) for _ in range(n)) for _ in range(k)]
                    A = PointSet.of(field, n, pts)
                    verdict = is_m_general(A, m)
                    assert verdict == m_general_oracle(field, A.points, m), (q, n, m, A.points)
                    verdicts[verdict] += 1
                # an m-general set plus a point on the line through two of its
                # points: the only dependencies go through it, one has 3 < m points
                grown = []
                for _ in range(30):
                    cand = tuple(rng.randrange(q) for _ in range(n))
                    if cand not in grown and m_general_oracle(field, grown + [cand], m):
                        grown.append(cand)
                    if len(grown) == 7:
                        break
                if len(grown) < 2:
                    continue
                a, b = rng.sample(grown, 2)
                c = rng.randrange(2, q)
                x = tuple(field.add(u, field.mul(c, field.sub(v, u))) for u, v in zip(a, b))
                if x in grown:
                    continue
                A = PointSet.of(field, n, grown + [x])
                assert not is_m_general(A, m) and not m_general_oracle(field, A.points, m)
                verdicts[False] += 1
                small_dependency += m > 3
    assert min(verdicts.values()) > 50 and small_dependency > 20, (verdicts, small_dependency)


def test_add_point_preserves_examples(f3, f9):
    A = PointSet.of(f3, 1, [(0,), (1,)])
    assert add_point_preserves(A, (2,), 3) is False  # completes the line
    B = PointSet.of(f3, 2, [(0, 0)])
    assert add_point_preserves(B, (1, 1), 3) is True
    with pytest.raises(ValueError, match="already"):
        add_point_preserves(B, (0, 0), 3)
    with pytest.raises(ValueError, match="coordinate not an integer"):
        add_point_preserves(B, (0.5, 0), 3)  # not judged as (0, 0)
    # a non-point is refused with PointSet.of's rules and messages, not judged
    A = PointSet.of(f3, 3, [(0, 0, 0), (1, 2, 1)])
    for p, match in [((1, 2), "2 coords"), ((1, 2, 1, 0), "4 coords"),
                     ((4, 0, 0), r"range for q=3: \(4, 0, 0\)"),
                     ((-1, 0, 0), "range for q=3"), ((0, 0, 7), "range for q=3")]:
        with pytest.raises(ValueError, match=match):
            add_point_preserves(A, p, 3)
        with pytest.raises(ValueError, match=match):
            A.with_point(p)
    with pytest.raises(ValueError, match="range for q=9"):
        add_point_preserves(PointSet.of(f9, 2, [(0, 0)]), (12, 5), 3)


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
            full = m_general_oracle(field, A.points + (cand,), m)
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
