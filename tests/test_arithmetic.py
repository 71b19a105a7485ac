import random
from itertools import combinations, product

import pytest

from mgeneral.affine import PointSet, is_m_general
from mgeneral.arithmetic import (
    CoeffVector,
    apply_form,
    count_nonzero_sum_vectors,
    is_bk,
    is_m_general_arithmetic,
    is_weak_bk,
    nonzero_sum_vectors,
    sum_zero_vectors,
    verify_ksum_injectivity,
    weakly_avoids,
)
from mgeneral.field import field_for_order, make_field
from oracles import bk_by_multisets, form_vanishes, m_general_by_forms, m_general_oracle


def test_coeff_vector_validation(f3, f5):
    CoeffVector.sum_zero(f3, (1, 2))
    with pytest.raises(ValueError, match="sum to 0"):
        CoeffVector.sum_zero(f3, (1, 1))
    with pytest.raises(ValueError, match="identically 0"):
        CoeffVector.sum_zero(f3, (0, 0, 0))
    CoeffVector.nonzero_sum(f5, (2, 4), 1)
    with pytest.raises(ValueError, match="nonzero"):
        CoeffVector.nonzero_sum(f5, (0, 1), 1)
    with pytest.raises(ValueError, match="sum to"):
        CoeffVector.nonzero_sum(f5, (2, 2), 1)


def test_apply_form(f3, f9):
    c = CoeffVector.sum_zero(f3, (1, 1, 1))  # (1, 1, -2) over F_3
    assert apply_form(c, [(2, 1), (2, 1), (2, 1)]) == (0, 0)
    c2 = CoeffVector.sum_zero(f3, (1, 2))
    assert apply_form(c2, [(1, 0), (1, 1)]) == (0, 2)
    with pytest.raises(ValueError, match="slots"):
        apply_form(c2, [(1, 0)])
    c9 = CoeffVector.sum_zero(f9, (1, 2))
    for bad in [(-1, 0), (9, 0)]:
        with pytest.raises(ValueError, match="range for q=9"):
            apply_form(c9, [(1, 0), bad])
    for bad in [(0.9, 1), ("0", "1")]:  # refused, not truncated to (0, 1)
        with pytest.raises(ValueError, match="coordinate not an integer"):
            apply_form(c2, [(1, 0), bad])


def test_sum_zero_vectors_counts_and_values(f2, f3):
    got = sorted(c.coeffs for c in sum_zero_vectors(f2, 3))
    assert got == [(0, 1, 1), (1, 0, 1), (1, 1, 0)]
    got = sorted(c.coeffs for c in sum_zero_vectors(f3, 2))
    assert got == [(1, 2), (2, 1)]
    assert sum(1 for _ in sum_zero_vectors(f3, 3)) == 8
    for q, t in [(2, 2), (2, 4), (3, 4), (4, 3), (5, 3)]:
        f = make_field(2, 2) if q == 4 else make_field(q)
        assert sum(1 for _ in sum_zero_vectors(f, t)) == q ** (t - 1) - 1
    with pytest.raises(ValueError, match="t >= 2"):
        list(sum_zero_vectors(f3, 1))


def test_nonzero_sum_vectors_counts(f3, f5):
    assert sum(1 for _ in nonzero_sum_vectors(f5, 2, 1)) == 3
    assert sum(1 for _ in nonzero_sum_vectors(f5, 2, 0)) == 4
    vecs = list(nonzero_sum_vectors(f3, 3, 1))
    assert len(vecs) == 3
    assert all(all(x != 0 for x in v.coeffs) for v in vecs)
    # closed-form recurrence agrees with enumeration
    for q in (2, 3, 4, 5, 7):
        f = make_field(2, 2) if q == 4 else make_field(q)
        for k in range(1, 5):
            assert count_nonzero_sum_vectors(q, k, True) == sum(
                1 for _ in nonzero_sum_vectors(f, k, 0)
            )
            assert count_nonzero_sum_vectors(q, k, False) == sum(
                1 for _ in nonzero_sum_vectors(f, k, 1)
            )


def test_coefficient_families_match_product_filter():
    # same vectors in the same order as filtering every length-k tuple
    for q in (2, 3, 4, 5, 9):
        f = field_for_order(q)

        def total(cs):
            acc = 0
            for c in cs:
                acc = f.add(acc, c)
            return acc

        for k in (1, 2, 3):
            for gamma in f.elements():
                want = [c for c in product(range(1, q), repeat=k) if total(c) == gamma]
                assert [c.coeffs for c in nonzero_sum_vectors(f, k, gamma)] == want
            if k >= 2:
                want = [c for c in product(range(q), repeat=k) if any(c) and total(c) == 0]
                assert [c.coeffs for c in sum_zero_vectors(f, k)] == want


def test_cgamma_lower_bound():
    # |C_gamma^*| >= (q-1)^(k-2) (q-2) for k >= 2, gamma != 0
    for q in (3, 4, 5, 7):
        for k in range(2, 5):
            assert count_nonzero_sum_vectors(q, k, False) >= (q - 1) ** (k - 2) * (q - 2)


def test_weakly_avoids(f3):
    A = PointSet.of(f3, 1, [(0,), (1,), (2,)])
    assert not weakly_avoids(A, CoeffVector.sum_zero(f3, (1, 1, 1)))
    # support-2 vectors are avoided by any set
    assert weakly_avoids(A, CoeffVector.sum_zero(f3, (1, 2, 0)))
    frame = PointSet.of(f3, 2, [(0, 0), (1, 0), (0, 1)])
    for c in sum_zero_vectors(f3, 3):
        assert weakly_avoids(frame, c)
    # vacuous when t exceeds |A|
    small = PointSet.of(f3, 2, [(0, 0), (1, 1)])
    assert weakly_avoids(small, CoeffVector.sum_zero(f3, (1, 1, 1)))
    with pytest.raises(ValueError, match="sum_zero"):
        weakly_avoids(A, CoeffVector.nonzero_sum(f3, (1, 2), 0))
    with pytest.raises(ValueError, match="form over 5"):
        weakly_avoids(A, CoeffVector.sum_zero(make_field(5), (1, 1, 3)))


def test_weakly_avoids_matches_reference():
    # every sum-zero form of length 3..5 against sets drawn from a pool of
    # sizes 0..8 in n = 1..3, at least ~400 checks per field; the reference
    # depends only on the nonzero coefficients as a multiset, so it runs once
    # per (set, multiset)
    rng = random.Random(8808)
    for q in (2, 3, 4, 5, 7, 9):
        field = field_for_order(q)
        pool = [
            PointSet.of(field, n, rng.sample(list(product(range(q), repeat=n)), size))
            for n in (1, 2, 3)
            for size in range(min(8, q**n) + 1)
        ]
        forms = [c for t in (3, 4, 5) for c in sum_zero_vectors(field, t)]
        draws = min(len(pool), max(1, 400 // len(forms)))
        reference: dict[tuple, bool] = {}
        verdicts = {True: 0, False: 0}
        longer = 0
        for c in forms:
            support = tuple(sorted(x for x in c.coeffs if x))
            for i in rng.sample(range(len(pool)), draws):
                A = pool[i]
                if (i, support) not in reference:
                    hit = len(support) >= 3 and form_vanishes(field, support, A.points)
                    reference[i, support] = not hit
                got = weakly_avoids(A, c)
                assert got == reference[i, support], (q, A.points, c.coeffs)
                verdicts[got] += 1
                longer += len(support) > len(A)
        assert min(verdicts.values()) >= 10, (q, verdicts)
        assert longer >= 10, q


def test_arithmetic_oracle_examples(f3, f5):
    assert not is_m_general_arithmetic(PointSet.of(f5, 1, [(1,), (2,), (4,)]), 3)
    assert is_m_general_arithmetic(PointSet.of(f3, 2, [(0, 0), (1, 0), (0, 1)]), 3)
    # below m the verdict is affine independence, as for the geometric oracle
    assert is_m_general_arithmetic(PointSet.of(f3, 2, [(0, 0)]), 3)
    assert is_m_general_arithmetic(PointSet.of(f3, 2, []), 4)
    assert not is_m_general_arithmetic(PointSet.of(f3, 2, [(0, 0), (1, 1), (2, 2)]), 4)
    with pytest.raises(ValueError, match="m out of range"):
        is_m_general_arithmetic(PointSet.of(f3, 2, [(0, 0), (1, 0), (0, 1)]), 7)


def test_restriction_closure(f5):
    # a set weakly avoiding all length-m forms also avoids all shorter ones
    rng = random.Random(5)
    space = list(product(range(5), repeat=2))
    m = 5
    for _ in range(10):
        pts = rng.sample(space, 6)
        A = PointSet.of(f5, 2, pts)
        if all(weakly_avoids(A, c) for c in sum_zero_vectors(f5, m)):
            for t in (3, 4):
                assert all(weakly_avoids(A, c) for c in sum_zero_vectors(f5, t))


def test_counterexample_fidelity(f5):
    # {1, 2, 4}: no integer three-term progression, yet not 3-general in F_5
    values = [1, 2, 4]
    for a, b, c in combinations(values, 3):
        assert b - a != c - b
    assert not is_m_general(PointSet.of(f5, 1, [(v,) for v in values]), 3)


def test_weak_bk_examples(f3, f5):
    assert is_weak_bk(PointSet.of(f3, 2, [(0, 0), (1, 1)]), 3)  # vacuous
    quad = PointSet.of(f5, 2, [(1, 0), (0, 1), (2, 0), (0, 2)])
    assert is_weak_bk(quad, 2)
    assert is_weak_bk(PointSet.of(f3, 1, [(0,), (1,), (2,)]), 2)


def test_bk_examples(f3, f5):
    two = PointSet.of(f3, 2, [(0, 1), (2, 2)])
    assert not is_bk(two, 3)  # a+a+a = b+b+b = 0 in characteristic 3
    quad = PointSet.of(f5, 2, [(1, 0), (0, 1), (2, 0), (0, 2)])
    assert is_bk(quad, 2)
    assert is_bk(PointSet.of(f3, 1, [(2,)]), 5)


def test_bk_char2_trivial_doubles(f2):
    # a + a = b + b = 0 is trivial in characteristic 2
    A = PointSet.of(f2, 3, [(0, 0, 0), (0, 0, 1), (0, 1, 0), (1, 0, 0)])
    assert is_bk(A, 2)
    # but a genuine cross pair collision still fails
    B = PointSet.of(f2, 3, [(0, 0, 0), (0, 0, 1), (0, 1, 0), (0, 1, 1)])
    assert not is_bk(B, 2)
    assert not is_weak_bk(B, 2)


def test_bk_matches_multiset_reference():
    rng = random.Random(2024)
    verdicts = []
    for p, d in ((2, 1), (2, 2), (2, 3), (3, 1), (5, 1), (3, 2)):
        field = make_field(p, d)
        n = 3 if field.q == 2 else 2
        space = list(product(range(field.q), repeat=n))
        for k in range(1, 6):
            for size in range(8):
                pts = rng.sample(space, size)
                A = PointSet.of(field, n, pts)
                verdict = is_bk(A, k)
                assert verdict == bk_by_multisets(field, A.points, k), (field.q, k, pts)
                verdicts.append(verdict)
    assert len(verdicts) == 240 and 0 < verdicts.count(False) < 240


def test_mgeneral_implies_weak_bk(f2, f3, f4, f5):
    rng = random.Random(77)
    for field in (f2, f3, f4, f5):
        n = 3
        space = list(product(range(field.q), repeat=n))
        for _ in range(15):
            m = rng.choice([3, 4, 5])
            pts = []
            for cand in rng.sample(space, min(len(space), 10)):
                trial = PointSet.of(field, n, pts + [cand])
                if is_m_general(trial, m):
                    pts.append(cand)
            A = PointSet.of(field, n, pts)
            assert is_m_general(A, m)
            for k in range(1, m // 2 + 1):
                assert is_weak_bk(A, k), (field.q, m, k, pts)


def test_injectivity_examples(f3, f5):
    A = PointSet.of(f3, 1, [(0,), (1,), (2,)])
    assert verify_ksum_injectivity(A, 1, 1)
    viol = PointSet.of(f5, 1, [(0,), (1,), (2,), (3,)])
    assert not is_weak_bk(viol, 2)
    assert not verify_ksum_injectivity(viol, 2, 1)
    with pytest.raises(ValueError, match="gamma"):
        verify_ksum_injectivity(viol, 2, 0)


def test_injectivity_on_4general_set(f5, f2):
    # 4-general implies (alpha, pair) -> weighted sum collisions cannot happen
    space = list(product(range(5), repeat=3))
    pts = []
    for cand in space:
        trial = PointSet.of(f5, 3, pts + [cand])
        if is_m_general(trial, 4):
            pts.append(cand)
        if len(pts) == 6:
            break
    A = PointSet.of(f5, 3, pts)
    assert is_m_general(A, 4) and len(A) >= 4
    assert verify_ksum_injectivity(A, 2, 1)
    assert verify_ksum_injectivity(A, 2, 3)
    # q = 2: gamma = 0 gives the all-ones family, i.e. distinct pair sums
    B = PointSet.of(f2, 4, [(0, 0, 0, 0), (1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 1)])
    assert is_m_general(B, 4)
    assert verify_ksum_injectivity(B, 2, 0)


def test_oracle_equivalence_random(f4, f5):
    rng = random.Random(4242)
    for field in (f4, f5):
        for _ in range(60):
            n = rng.randint(1, 3)
            m = rng.randint(3, min(5, n + 2))
            space = list(product(range(field.q), repeat=n))
            size = rng.randint(m, min(len(space), m + 3))
            pts = rng.sample(space, size)
            A = PointSet.of(field, n, pts)
            assert is_m_general(A, m) == is_m_general_arithmetic(A, m)


CROSS_CHECK_FIELDS = [(2, 1), (3, 1), (2, 2), (5, 1), (7, 1), (2, 3), (3, 2)]


def _grow(field, n, m, size, rng):
    """A random m-general set of up to `size` points, grown greedily."""
    space = list(product(range(field.q), repeat=n))
    rng.shuffle(space)
    pts = []
    for cand in space:
        if len(pts) == size:
            break
        if is_m_general(PointSet.of(field, n, pts + [cand]), m):
            pts.append(cand)
    return pts


def test_meet_in_the_middle_matches_references():
    rng = random.Random(2002)
    checked = {True: 0, False: 0}
    for p, d in CROSS_CHECK_FIELDS:
        field = make_field(p, d)
        for n in (2, 3, 4) if field.q <= 4 else (2, 3):
            space = list(product(range(field.q), repeat=n))
            for m in range(3, n + 3):
                for trial in range(10):
                    size = m + trial % 3  # |A| = m included
                    if trial < 4:
                        pts = rng.sample(space, min(size, len(space)))
                    else:
                        pts = _grow(field, n, m, size, rng)
                        if len(pts) < m:
                            pts += rng.sample([x for x in space if x not in pts], m - len(pts))
                    A = PointSet.of(field, n, pts)
                    got = is_m_general_arithmetic(A, m)
                    assert got == m_general_by_forms(field, A.points, m), (field.q, n, m, pts)
                    assert got == m_general_oracle(field, A.points, m), (field.q, n, m, pts)
                    checked[got] += 1
    assert sum(checked.values()) >= 400
    assert min(checked.values()) >= 100, checked


def _only_dependency(field, n, m, base, rng, support):
    """base (m-general) plus a point x completing one zero-sum relation of
    the given support on x and support - 1 points of base, such that
    deleting any point of the relation leaves an m-general set; None when
    the draw fails."""
    a, b, c = rng.sample(base, 3)
    if support == 3:  # x = lam a + (1 - lam) b, lam not in {0, 1}
        lam = rng.randrange(2, field.q)
        coeffs, pts = (lam, field.sub(1, lam)), (a, b)
    else:  # x = a - b + c: the split {a, b} | {c, x} has gamma = 0
        coeffs, pts = (1, field.neg(1), 1), (a, b, c)
    x = tuple(0 for _ in range(n))
    for cf, pt in zip(coeffs, pts):
        x = tuple(field.add(xi, field.mul(cf, yi)) for xi, yi in zip(x, pt))
    if x in base:
        return None
    full = base + [x]
    for y in pts + (x,):
        rest = [z for z in full if z != y]
        if not is_m_general(PointSet.of(field, n, rest), m):
            return None
    return PointSet.of(field, n, full)


@pytest.mark.parametrize("m", [3, 4, 5])
def test_meet_in_the_middle_hand_built_negatives(m):
    rng = random.Random(100 + m)
    supports = (3,) if m == 3 else (3, 4)
    for p, d in [(2, 2), (3, 1), (5, 1), (3, 2), (2, 1)]:
        field = make_field(p, d)
        for support in supports:
            if support == 3 and field.q == 2:
                continue  # over F_2 every zero-sum relation has even support
            built = 0
            for _ in range(200):
                base = _grow(field, 4, m, max(3, m - 1 + rng.randrange(3)), rng)
                A = _only_dependency(field, 4, m, base, rng, support)
                if A is None:
                    continue
                assert not is_m_general_arithmetic(A, m), (field.q, m, support, A.points)
                assert not m_general_by_forms(field, A.points, m)
                assert not m_general_oracle(field, A.points, m)
                built += 1
                if built == 4:
                    break
            assert built == 4, (field.q, m, support)
