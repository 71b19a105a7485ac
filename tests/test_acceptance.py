"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
report lines and timings.
"""

import math
import random
import time
from itertools import combinations, product

import pytest

from mgeneral.affine import PointSet, is_affinely_independent, is_m_general
from mgeneral.arithmetic import (
    count_nonzero_sum_vectors,
    is_m_general_arithmetic,
    is_weak_bk,
    nonzero_sum_vectors,
    sum_zero_vectors,
    verify_ksum_injectivity,
)
from mgeneral.bounds import (
    h_deriv, h_eval, minimize_h, mu_upper_bennett, refined_bound, search_cap, table2_rows,
)
from mgeneral.constructions import FunctionTable, cube_function, is_apn, lower_bound_4general
from mgeneral.field import field_for_order, make_field
from mgeneral.search import search_exact
from oracles import brute_force_max, finite_difference


def report(number: int, name: str, ok: bool, detail: str = ""):
    print(f"\nACCEPTANCE {number} ({name}): {'PASS' if ok else 'FAIL'} {detail}")
    assert ok, f"criterion {number} ({name}) failed: {detail}"


# ---------------------------------------------------------------------------
# 1. oracle equivalence: geometric vs arithmetic m-general checkers


@pytest.mark.acceptance
def test_criterion_1_oracle_equivalence():
    t0 = time.time()
    f2, f3 = make_field(2), make_field(3)
    f4, f5 = make_field(2, 2), make_field(5)
    disagreements = 0
    checked = 0

    space = list(product(range(2), repeat=3))
    for r in range(0, 9):
        for sub in combinations(space, r):
            A = PointSet.of(f2, 3, sub)
            if is_m_general(A, 4) != is_m_general_arithmetic(A, 4):
                disagreements += 1
            checked += 1

    space = list(product(range(3), repeat=2))
    for r in range(0, 10):
        for sub in combinations(space, r):
            A = PointSet.of(f3, 2, sub)
            if is_m_general(A, 3) != is_m_general_arithmetic(A, 3):
                disagreements += 1
            checked += 1

    rng = random.Random(20260809)
    done = 0
    while done < 10_000:
        field = f4 if rng.random() < 0.5 else f5
        n = rng.randint(1, 4)
        m = rng.choice([mm for mm in (3, 4, 5) if mm <= n + 2])
        space_size = field.q**n
        size = rng.randint(0, min(space_size, m + 3))
        pts = []
        for code in rng.sample(range(space_size), size):
            coords = []
            for _ in range(n):
                coords.append(code % field.q)
                code //= field.q
            pts.append(tuple(coords))
        A = PointSet.of(field, n, pts)
        if is_m_general(A, m) != is_m_general_arithmetic(A, m):
            disagreements += 1
        done += 1
    checked += done

    elapsed = time.time() - t0
    report(
        1,
        "oracle equivalence",
        disagreements == 0 and elapsed < 120,
        f"{checked} instances, {disagreements} disagreements, {elapsed:.1f}s (< 120s)",
    )


# ---------------------------------------------------------------------------
# 2. the mu_4(2) sandwich at finite n


@pytest.mark.acceptance
def test_criterion_2_sandwich():
    t0 = time.time()
    details = []
    ok = True
    for n in range(2, 21, 2):
        A = lower_bound_4general(n)  # verified 4-general internally
        want = 2 ** (n // 2)
        upper = 1 + math.sqrt(2) * 2 ** (n / 2)
        if len(A) != want or not len(A) <= refined_bound(n, 2, 4) <= upper:
            ok = False
            details.append(f"n={n} construction size {len(A)} != {want}")

    search_budget = {2: 10_000, 4: 100_000, 6: 1_500_000, 8: 600_000}
    for n in (2, 4, 6, 8):
        lo, hi = 2 ** (n // 2), math.floor(1 + math.sqrt(2) * 2 ** (n / 2))
        cert = search_exact(n, 2, 4, max_nodes=search_budget[n], max_seconds=120)
        A = cert.point_set()
        if not is_m_general(A, 4) or cert.value > hi:
            ok = False
            details.append(f"n={n} search witness invalid or above bound")
        if not lo <= cert.value:
            # construction <= search result: the budgets above are calibrated
            # so the search always reaches the construction's size
            ok = False
            details.append(f"n={n} search best {cert.value} below construction {lo}")
        details.append(
            f"r_4({n},2): {'=' if cert.exact else '>='} {cert.value}, sandwich [{lo}, {hi}]"
        )
    elapsed = time.time() - t0
    report(2, "mu_4(2) sandwich", ok and elapsed < 600,
           "; ".join(details) + f"; {elapsed:.1f}s (< 600s)")


# ---------------------------------------------------------------------------
# 3. exact small values against the no-pruning oracle
#
# The oracle enumerates every m-general subset with no pruning and no
# symmetry reduction.  Cells of the q^n <= 81 grid whose unpruned tree is
# astronomically large are listed below and skipped: for q=2, m=3 every
# subset qualifies (lines in AG(n,2) have 2 points), giving 2^(2^n) prefixes,
# so n >= 4 is asserted analytically instead (maximum = the whole space);
# the other skipped cells were measured to exceed 8M oracle nodes.

ORACLE_CELLS = [
    (2, 1, 3), (2, 2, 3), (2, 2, 4), (2, 3, 3), (2, 3, 4), (2, 3, 5),
    (2, 4, 4), (2, 4, 5), (2, 4, 6), (2, 5, 4),
    (3, 1, 3), (3, 2, 3), (3, 2, 4), (3, 3, 4), (3, 3, 5),
    (4, 1, 3), (4, 2, 3), (4, 2, 4),
    (5, 1, 3), (5, 2, 3), (5, 2, 4),
    (7, 1, 3), (7, 2, 4),
    (8, 1, 3), (8, 2, 4),
    (9, 1, 3), (9, 2, 4),
    (16, 1, 3), (25, 1, 3), (27, 1, 3), (32, 1, 3), (49, 1, 3), (64, 1, 3),
    (81, 1, 3),
]

ANALYTIC_Q2_M3 = [4, 5, 6]  # r_3(n, 2) = 2^n: no 3 points share a 2-point line

SKIPPED_CELLS = [
    (2, 4, 3), (2, 5, 3), (2, 6, 3),  # analytic family above
    (2, 5, 5), (2, 5, 6), (2, 5, 7),
    (2, 6, 4), (2, 6, 5), (2, 6, 6), (2, 6, 7), (2, 6, 8),
    (3, 3, 3), (3, 4, 3), (3, 4, 4), (3, 4, 5), (3, 4, 6),
    (4, 3, 3), (4, 3, 4), (4, 3, 5),
    (7, 2, 3), (8, 2, 3), (9, 2, 3),
]


_field_for = field_for_order


@pytest.mark.acceptance
@pytest.mark.slow
def test_criterion_3_exact_values_vs_oracle():
    t0 = time.time()
    ok = True
    details = []

    # named values, oracle first
    named = {(3, 1, 3): 2, (3, 2, 3): 4, (2, 3, 4): 4}
    for (q, n, m), expected in named.items():
        field = _field_for(q)
        val, wit, _ = brute_force_max(field, n, m)
        if val != expected:
            ok = False
            details.append(f"oracle r_{m}({n},{q}) = {val} != {expected}")
    details.append("r_3(1,3)=2 r_3(2,3)=4 r_4(3,2)=4 oracle-confirmed")

    mismatches = []
    theorem_cells = 0
    for q, n, m in ORACLE_CELLS:
        field = _field_for(q)
        res = brute_force_max(field, n, m, node_budget=8_000_000, time_budget=120)
        if res is None:
            mismatches.append((q, n, m, "oracle budget"))
            continue
        val, wit, _ = res
        cert = search_exact(n, field, m, max_nodes=8_000_000, max_seconds=120)
        if not (cert.exact and cert.value == val and cert.witness == wit):
            mismatches.append((q, n, m, f"search {cert.value} vs oracle {val}"))
        # the search's cap bounds the true maximum, and the closed-form caps attain it
        cap, reason = search_cap(n, q, m)
        theorem_cells += reason in ("dimension", "arc")
        if cap is not None and (val > cap or (reason in ("dimension", "arc") and val != cap)):
            mismatches.append((q, n, m, f"oracle {val} vs {reason} cap {cap}"))
    if mismatches:
        ok = False
        details.append(f"mismatches: {mismatches}")
    details.append(f"{len(ORACLE_CELLS)} grid cells bit-for-bit, within search_cap, "
                   f"equal to it on {theorem_cells} dimension and arc cells")

    f2 = make_field(2)
    for n in ANALYTIC_Q2_M3:
        cert = search_exact(n, f2, 3)
        whole_space = tuple(sorted(product(range(2), repeat=n)))
        if not (cert.exact and cert.value == 2**n and cert.witness == whole_space):
            ok = False
            details.append(f"analytic q=2 m=3 n={n}: got {cert.value}")
    details.append(f"q=2, m=3, n in {ANALYTIC_Q2_M3}: r = 2^n analytic")
    details.append(f"{len(SKIPPED_CELLS)} cells skipped as intractable (see ledger)")

    elapsed = time.time() - t0
    report(3, "exact small values", ok, "; ".join(details) + f"; {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 4. table 2 reproduction, exact strings


@pytest.mark.acceptance
def test_criterion_4_table2():
    cells = [cell for _, cell in table2_rows()]
    want = [".500", ".500", ".334", ".334", ".250"]
    report(4, "table 2 strings", cells == want, f"{cells}")


# ---------------------------------------------------------------------------
# 5. table 1 spot checks


@pytest.mark.acceptance
def test_criterion_5_table1_spot_checks():
    ok = True
    details = []
    for q, m, printed in [(3, 3, 0.923), (2, 4, 0.813), (3, 4, 0.821), (11, 3, 0.941)]:
        t_star, h_min, iters = minimize_h(q, m, tol=1e-12, max_iter=200)
        mu = math.log(h_min) / math.log(q)
        good = abs(mu - printed) <= 0.002 and iters < 200
        ok = ok and good
        details.append(f"(q={q},m={m}): {mu:.4f} vs {printed} in {iters} iters")
    report(5, "table 1 spot checks", ok, "; ".join(details))


# ---------------------------------------------------------------------------
# 6. the q=2, m=4 minimum of h


@pytest.mark.acceptance
def test_criterion_6_bennett_anchor():
    _, h_min, _ = minimize_h(2, 4)
    report(6, "min h_2 anchor", abs(h_min - 1.755) <= 0.001, f"min h = {h_min:.6f}")


# ---------------------------------------------------------------------------
# 7. APN suite


@pytest.mark.acceptance
def test_criterion_7_apn_suite():
    t0 = time.time()
    ok = True
    details = []
    for d in range(1, 9):
        rep = is_apn(cube_function(make_field(2, d)))
        if not rep.is_apn or (d >= 2 and rep.max_solutions != 2):
            ok = False
            details.append(f"cube d={d}: {rep}")
    for d in range(2, 9):
        f = make_field(2, d)
        square = FunctionTable(f, tuple(f.mul(x, x) for x in f.elements()))
        ident = FunctionTable(f, tuple(f.elements()))
        for name, fn in (("x^2", square), ("id", ident)):
            rep = is_apn(fn)
            if rep.is_apn or rep.max_solutions != f.q:
                ok = False
                details.append(f"{name} d={d}: {rep}")
    elapsed = time.time() - t0
    report(7, "APN suite", ok and elapsed < 60,
           f"cube APN d=1..8, x^2/id fail with count q; {elapsed:.1f}s (< 60s)")


# ---------------------------------------------------------------------------
# 8. property suites


@pytest.mark.acceptance
def test_criterion_8_property_suites():
    ok = True
    details = []
    rng = random.Random(88)
    f2, f3, f5 = make_field(2), make_field(3), make_field(5)

    # heredity of affine independence
    for field in (f3, f5):
        space = list(product(range(field.q), repeat=3))
        for _ in range(30):
            pts = rng.sample(space, 4)
            A = PointSet.of(field, 3, pts)
            if is_affinely_independent(A):
                for k in range(1, 4):
                    for sub in combinations(A.points, k):
                        if not is_affinely_independent(PointSet.of(field, 3, sub)):
                            ok = False
    details.append("heredity")

    # m -> m-1 monotonicity
    for _ in range(40):
        field = f2 if rng.random() < 0.5 else f3
        n = 4
        space = list(product(range(field.q), repeat=n))
        pts = rng.sample(space, rng.randint(4, 8))
        A = PointSet.of(field, n, pts)
        for m in (4, 5, 6):
            if is_m_general(A, m) and not is_m_general(A, m - 1):
                ok = False
    details.append("m monotone")

    # m-general implies weak B_k for k <= m//2
    for _ in range(30):
        field = rng.choice((f2, f3, f5))
        n = 3
        space = list(product(range(field.q), repeat=n))
        m = rng.choice([3, 4, 5])
        pts = []
        for cand in rng.sample(space, min(len(space), 10)):
            if is_m_general(PointSet.of(field, n, pts + [cand]), m):
                pts.append(cand)
        A = PointSet.of(field, n, pts)
        for k in range(1, m // 2 + 1):
            if not is_weak_bk(A, k):
                ok = False
    details.append("weak B_k implication")

    # coefficient family cardinalities
    for q in (2, 3, 4, 5):
        field = make_field(2, 2) if q == 4 else make_field(q)
        for t in (2, 3, 4):
            if sum(1 for _ in sum_zero_vectors(field, t)) != q ** (t - 1) - 1:
                ok = False
    for q in (3, 4, 5, 7):
        field = make_field(2, 2) if q == 4 else make_field(q)
        for k in range(2, 5):
            count = sum(1 for _ in nonzero_sum_vectors(field, k, 1))
            if count < (q - 1) ** (k - 2) * (q - 2):
                ok = False
            if count != count_nonzero_sum_vectors(q, k, False):
                ok = False
    details.append("C_0 and C_gamma* counts")

    # closed-form derivative vs finite differences
    for q in (2, 3, 5, 11):
        for m in (3, 4, 7):
            for t in (0.1, 0.3, 0.5, 0.7, 0.9):
                fd = finite_difference(lambda x: h_eval(q, m, x), t)
                cf = h_deriv(q, m, t)
                if abs(fd - cf) / max(1.0, abs(cf)) >= 1e-6:
                    ok = False
    details.append("h' vs finite differences")

    # k-sum injectivity on the constructed 4-general sets (q=2: gamma=0
    # yields the all-ones pair family, i.e. distinct pair sums)
    for n in range(2, 15, 2):
        A = lower_bound_4general(n)
        if not verify_ksum_injectivity(A, 2, 0):
            ok = False
    details.append("injectivity on constructed sets")

    report(8, "property suites", ok, ", ".join(details))
