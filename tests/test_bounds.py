import math

import pytest

from mgeneral.bounds import (
    TABLE1_M_ROWS,
    TABLE1_Q_COLUMNS,
    bennett_bound,
    bennett_lower_estimate,
    bound_main,
    bound_report,
    h_deriv,
    h_eval,
    integer_cap,
    minimize_h,
    mu_upper_bennett,
    mu_upper_main,
    refined_bound,
    reports_to_csv,
    round_half_up,
    search_cap,
    table1_grid,
    table2_rows,
    within_cap,
)
from mgeneral import bounds
from mgeneral.arithmetic import count_nonzero_sum_vectors
from oracles import finite_difference

# published upper bounds on the growth rate, by (m, q)
TABLE1_PRINTED = {
    (3, 3): 0.923, (3, 5): 0.930, (3, 7): 0.935, (3, 9): 0.938, (3, 11): 0.941,
    (4, 2): 0.813, (4, 3): 0.821, (4, 4): 0.829, (4, 5): 0.836, (4, 7): 0.846,
    (4, 8): 0.851, (4, 9): 0.854, (4, 11): 0.861,
    (5, 3): 0.735, (5, 5): 0.756, (5, 7): 0.771, (5, 9): 0.782, (5, 11): 0.791,
    (6, 2): 0.651, (6, 3): 0.665, (6, 4): 0.679, (6, 5): 0.690, (6, 7): 0.708,
    (6, 8): 0.716, (6, 9): 0.722, (6, 11): 0.734,
    (7, 3): 0.609, (7, 5): 0.636, (7, 7): 0.657, (7, 9): 0.673, (7, 11): 0.685,
    (8, 2): 0.544, (8, 3): 0.562, (8, 4): 0.577, (8, 5): 0.591, (8, 7): 0.613,
    (8, 8): 0.622, (8, 9): 0.631, (8, 11): 0.644,
}


def test_bound_main_examples():
    assert bound_main(4, 2, 4) == pytest.approx(math.sqrt(2) * 4 + 2)
    assert bound_main(3, 3, 6) == pytest.approx(3 * 3 / 2 ** (1 / 3))
    assert bound_main(2, 5, 4) == pytest.approx(10 / math.sqrt(3))


def test_bound_main_preconditions():
    with pytest.raises(ValueError, match="m >= 4"):
        bound_main(3, 3, 3)
    with pytest.raises(ValueError, match="n >= 1"):
        bound_main(0, 3, 4)


def test_refined_bound_closed_form_q2():
    for n in (2, 4, 6, 8, 12):
        want = (1 + math.sqrt(1 + 2 ** (n + 3))) / 2
        assert refined_bound(n, 2, 4) == pytest.approx(want, abs=1e-7)
        assert refined_bound(n, 2, 4) <= 1 + math.sqrt(2) * 2 ** (n / 2)


def test_integer_cap_is_the_largest_solution():
    for q in (2, 3, 4, 5, 7, 9):
        for m in range(4, 10):
            k = m // 2
            L = 1 if q == 2 else count_nonzero_sum_vectors(q, k, gamma_is_zero=False)
            for n in list(range(1, 30)) + [57, 84, 200]:
                cap = integer_cap(n, q, m)
                assert L * math.comb(cap, k) <= q**n < L * math.comb(cap + 1, k), (n, q, m)
                r = refined_bound(n, q, m)
                assert cap * (1 - 1e-12) <= r < (cap + 1) * (1 + 1e-12), (n, q, m)


def test_within_cap_agrees_with_integer_cap():
    # L C(cap, k) = q^n exactly at (3, 1, 4) and (2, 2, 6)
    cells = [(2, 10, 4), (2, 84, 4), (4, 12, 6), (8, 5, 4), (3, 7, 4), (9, 6, 5), (5, 40, 8), (3, 1, 4), (2, 2, 6)]
    shortcut_used = set()
    for q, n, m in cells:
        k = m // 2
        L = 1 if q == 2 else count_nonzero_sum_vectors(q, k, gamma_is_zero=False)
        cap = integer_cap(n, q, m)
        for v in range(max(cap - 2, 0), cap + 3):
            assert within_cap(v, n, q, m) == (v <= cap), (q, n, m, v)
            shortcut_used.add((L * math.comb(v, k)).bit_length() <= n * (q.bit_length() - 1))
    assert shortcut_used == {True, False}


def test_search_cap_is_the_least_cap_that_applies():
    assert search_cap(3, 3, 3) == (None, None)  # m = 3, n >= 3: no cap
    assert search_cap(1, 65536, 3) == (2, "dimension")
    assert search_cap(2, 9, 4) == (3, "dimension")  # counting cap 5
    assert search_cap(3, 2, 5) == (4, "counting")  # ties the dimension cap
    assert search_cap(5, 2, 7) == (6, "counting")
    assert search_cap(2, 2, 4) == (3, "counting")  # ties the dimension cap
    assert search_cap(2, 4, 4) == (3, "dimension")  # counting cap 4
    # over F_2 a relation on n + 2 points, n odd, leaves one out: r_{n+1}(n,2) = n + 1
    assert search_cap(7, 2, 8) == (8, "dimension")  # counting cap 9
    assert search_cap(9, 2, 10) == (10, "dimension")
    assert search_cap(3, 2, 4) == (4, "counting")  # ties the dimension cap
    assert search_cap(5, 2, 6) == (6, "counting")  # ties the dimension cap
    assert [search_cap(2, q, 3) for q in (2, 3, 8, 9, 11, 16)] == [
        (4, "arc"), (4, "arc"), (10, "arc"), (10, "arc"), (12, "arc"), (18, "arc")]


def test_within_cap_agrees_with_search_cap():
    # cells with a closed-form cap; the test above covers the counting cap alone
    cells = [(q, 2, 3) for q in (2, 3, 4, 5, 7, 8, 9, 11, 16, 65536)]
    cells += [(q, n, n + 2) for q in (2, 3, 9) for n in (1, 2, 3, 5, 8)]
    cells += [(2, n, n + 1) for n in (7, 9, 11)]
    for q, n, m in cells:
        cap, _ = search_cap(n, q, m)
        for v in range(max(cap - 2, 0), cap + 3):
            assert within_cap(v, n, q, m) == (v <= cap), (q, n, m, v)
    assert within_cap(10**9, 3, 3, 3)  # no cap applies


def test_integer_cap_where_the_float_floor_was_one_short():
    # q^n = 2^84: the float bisection floored to 6219777023950
    assert integer_cap(84, 2, 4) == 6219777023951
    assert math.floor(refined_bound(84, 2, 4)) == 6219777023951


def test_integer_cap_with_root_beyond_float_range():
    for n, q, m in [(3000, 2, 4), (2500, 3, 5)]:
        k = m // 2
        L = 1 if q == 2 else count_nonzero_sum_vectors(q, k, gamma_is_zero=False)
        cap = integer_cap(n, q, m)
        assert cap.bit_length() > 1024  # past the largest float
        assert L * math.comb(cap, k) <= q**n < L * math.comb(cap + 1, k), (n, q, m)


def test_bounds_beyond_float_range():
    assert refined_bound(1100, 2, 4) == pytest.approx(2**550 * math.sqrt(2), rel=1e-12)
    assert refined_bound(10**6, 2, 4) == math.inf
    assert bound_main(10**4, 3, 4) == math.inf
    assert bennett_bound(10**6, 3, 3)[0] == math.inf


def test_refined_le_main():
    for n, q, m in [(4, 2, 4), (3, 3, 6), (2, 5, 4), (6, 3, 4), (5, 7, 8), (8, 2, 6), (3, 9, 5)]:
        assert refined_bound(n, q, m) <= bound_main(n, q, m) + 1e-9


def test_bound_main_monotone():
    for q, m in [(3, 4), (2, 4), (5, 6)]:
        k = m // 2
        values = [bound_main(n, q, m) for n in range(k, 10)]
        assert all(a < b for a, b in zip(values, values[1:]))
    # decreasing in m at fixed n, q (for n >= k)
    for q in (3, 5):
        for n in (6, 8):
            vals = [bound_main(n, q, m) for m in (4, 6, 8)]
            assert all(a >= b for a, b in zip(vals, vals[1:]))


def test_h_eval_limit_and_domain():
    for q in (2, 3, 5, 11):
        assert abs(h_eval(q, 4, 1 - 1e-6) - q) < 1e-3
    with pytest.raises(ValueError, match=r"\(0,1\)"):
        h_eval(3, 4, 0.0)
    with pytest.raises(ValueError, match=r"\(0,1\)"):
        h_deriv(3, 4, 1.0)


def test_h_deriv_matches_finite_differences():
    for q in (2, 3, 5, 9, 11):
        for m in (3, 4, 5, 8):
            for t in (0.05, 0.2, 0.4, 0.6, 0.8, 0.95):
                fd = finite_difference(lambda x: h_eval(q, m, x), t)
                cf = h_deriv(q, m, t)
                assert abs(fd - cf) / max(1.0, abs(cf)) < 1e-6, (q, m, t)


def test_h_deriv_brackets_minimizer():
    for q, m in [(2, 4), (3, 3), (5, 5), (11, 3)]:
        t_star, _, _ = minimize_h(q, m)
        assert h_deriv(q, m, t_star - 1e-6) < 0 < h_deriv(q, m, t_star + 1e-6)


def test_minimize_h_against_grid():
    for q, m in [(2, 4), (3, 3), (3, 4), (7, 5), (11, 3)]:
        t_star, h_min, iters = minimize_h(q, m)
        assert iters < 200
        grid_min = min(h_eval(q, m, 0.001 + i * 0.998 / 9999) for i in range(10000))
        assert h_min <= grid_min + 1e-9


def test_bennett_anchor_q2_m4():
    t_star, h_min, _ = minimize_h(2, 4)
    assert abs(h_min - 1.755) < 1e-3
    assert t_star == pytest.approx(1 / 3, abs=1e-6)  # analytic minimizer of x^(-1/4)(1+x)
    bound, t = bennett_bound(6, 2, 4)
    assert bound == pytest.approx(8 + 4 * h_min**6)


def test_bennett_parity_errors():
    with pytest.raises(ValueError, match="parity|both even"):
        bennett_bound(5, 2, 5)
    with pytest.raises(ValueError, match="parity|both even"):
        mu_upper_bennett(4, 7)


def test_mu_upper_main_values():
    assert f"{mu_upper_main(4):.3f}" == "0.500"
    assert f"{mu_upper_main(5):.3f}" == "0.500"
    assert mu_upper_main(6) == pytest.approx(1 / 3)
    assert mu_upper_main(8) == pytest.approx(1 / 4)
    with pytest.raises(ValueError, match="m >= 4"):
        mu_upper_main(3)


def test_table1_spot_checks():
    for q, m, printed in [(3, 3, 0.923), (2, 4, 0.813), (3, 4, 0.821), (11, 3, 0.941)]:
        assert abs(mu_upper_bennett(q, m) - printed) <= 0.002
        _, _, iters = minimize_h(q, m)
        assert iters < 200


def test_table1_full_reproduction():
    grid = table1_grid()
    assert set(grid) == set(TABLE1_PRINTED)
    for cell, printed in TABLE1_PRINTED.items():
        assert abs(grid[cell] - printed) <= 0.002 + 1e-9, (cell, grid[cell], printed)


def test_table1_parity_blanks():
    grid = table1_grid()
    for m in TABLE1_M_ROWS:
        for q in TABLE1_Q_COLUMNS:
            applicable = q % 2 == 1 or (m % 2 == 0 and q % 2 == 0)
            assert ((m, q) in grid) == applicable


def test_table2_exact_strings():
    assert [cell for _, cell in table2_rows()] == [".500", ".500", ".334", ".334", ".250"]


def test_round_half_up():
    assert round_half_up(0.8115) == 0.812
    assert round_half_up(0.9225) == 0.923
    assert round_half_up(0.1234) == 0.123


def test_bennett_lower_estimate():
    assert h_deriv(3, 100, 1 / 100) < 0
    assert h_deriv(3, 100, 3 / 100) > 0
    est = bennett_lower_estimate(50, 3, 100)
    assert est == pytest.approx(100 * (100 / 3) ** (2 * 50 / 100))
    # the growth-rate comparison the estimate exhibits
    _, h_min, _ = minimize_h(3, 100)
    lhs = math.log(h_min) / math.log(3)
    rhs = (3 - 1) / 100 * (math.log(100) / math.log(3) - 1)
    assert lhs >= rhs
    with pytest.raises(ValueError, match="not applicable"):
        bennett_lower_estimate(10, 11, 5)  # q/m >= 1


def test_mu_main_beats_bennett_for_m_ge_4():
    for (m, q) in TABLE1_PRINTED:
        if m >= 4:
            assert mu_upper_main(m) < mu_upper_bennett(q, m)


def test_bound_report_and_csv():
    r = bound_report(3, 2, 5)
    assert r.k == 2
    assert r.main is not None and r.refined is not None
    assert r.bennett is None and r.t_star is None and r.mu_bennett is None
    r2 = bound_report(4, 3, 3)
    assert r2.main is None and r2.bennett is not None
    csv = reports_to_csv([r, r2])
    lines = csv.strip().splitlines()
    assert lines[0] == "format=1"
    assert lines[1] == "q,m,n,k,main,refined,bennett,t_star,mu_main,mu_bennett"
    assert lines[2].startswith("2,5,3,2,") and ",NA" in lines[2]
    assert lines[3].startswith("3,3,4,1,NA,NA,")
    # six significant digits
    assert "4.53113" in lines[2]


def test_bound_report_bennett_na_below_m_minus_2():
    r = bound_report(2, 9, 5)  # n = 2 < m - 2
    assert r.main is not None and r.refined is not None
    assert r.bennett is None and r.t_star is None and r.mu_bennett is None
    r2 = bound_report(3, 9, 5)
    assert r2.bennett is not None and r2.mu_bennett is not None


@pytest.mark.parametrize("n, q, m", [(4, 3, 3), (6, 2, 4), (8, 3, 4), (2, 9, 4), (8, 9, 5), (10**6, 3, 3),
                                     (1100, 2, 4), (5, 4, 6), (3, 2, 5), (2, 9, 5)])
def test_bound_report_fields_equal_the_public_functions(monkeypatch, n, q, m):
    """bound_report minimizes h at most once per row, and its fields equal
    what the public functions return one by one."""
    calls = []
    monkeypatch.setattr(bounds, "minimize_h", lambda *a: calls.append(a) or minimize_h(*a))
    r = bound_report(n, q, m)
    applies = (q % 2 == 1 or m % 2 == 0) and n >= m - 2
    assert len(calls) == applies
    monkeypatch.undo()
    if applies:
        assert (r.bennett, r.t_star) == bennett_bound(n, q, m)
        assert r.mu_bennett == mu_upper_bennett(q, m)
    else:
        assert (r.bennett, r.t_star, r.mu_bennett) == (None, None, None)
    if m >= 4:
        assert (r.main, r.refined, r.mu_main) == (bound_main(n, q, m), refined_bound(n, q, m), mu_upper_main(m))
