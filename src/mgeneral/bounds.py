"""Upper and lower bounds on r_m(n,q), the maximum size of an m-general set.

Three bound families:

* the counting bound with k = floor(m/2):
      k * q^(n/k) / ((q-1)^(1-2/k) * (q-2)^(1/k))   for q > 2,
      (k!)^(1/k) * 2^(n/k) + k                      for q = 2;
* its refined form, solving  L * C(x, k) <= q^n  exactly for real x, where
  L is the exact number of all-nonzero length-k coefficient vectors with a
  fixed nonzero sum (L = 1 for q = 2, where unordered k-subset sums must be
  distinct); the largest integer solution, the cap that search and
  certificate checks compare against, is found in exact integers;
* Bennett's bound  2m + m * (min_t h(t))^n  with
      h(t) = t^(-(q-1)/m) * (1 - t^q) / (1 - t),
  valid when q is odd or m and q are both even, minimized by ternary search
  on the convex h.

Growth-rate (mu) bounds follow: 1/floor(m/2) from the counting bound and
log_q(min h) from Bennett's.

The exact search stops at `search_cap`, the least of the counting cap and
two closed-form caps, and `within_cap` tests a claimed value against the
same caps:

* dimension, m = n + 2: r = n + 1, as any n + 2 points of AG(n,q) are
  affinely dependent and a frame {0, e_1, ..., e_n} is (n+2)-general; also
  q = 2, m = n + 1 with n odd, as a relation over F_2 has even support, so
  one on n + 2 points (an odd number) leaves out at least one of them;
* arc, n = 2 and m = 3: r <= q + 1 for odd q and q + 2 for even q, as an
  affine arc is an arc of PG(2,q) (Bose 1947).
"""

from __future__ import annotations

import math
import sys

from ._record import record
from .arithmetic import count_nonzero_sum_vectors

__all__ = [
    "BoundReport",
    "bound_main",
    "refined_bound",
    "integer_cap",
    "search_cap",
    "within_cap",
    "h_eval",
    "h_deriv",
    "minimize_h",
    "bennett_bound",
    "mu_upper_main",
    "mu_upper_bennett",
    "bennett_lower_estimate",
    "bound_report",
    "reports_to_csv",
    "table1_grid",
    "table2_rows",
    "TABLE1_Q_COLUMNS",
    "TABLE1_M_ROWS",
]


_LOG_MAX = math.log(sys.float_info.max)


def _exp(x: float) -> float:
    """e^x, or inf past the float range."""
    return math.exp(x) if x <= _LOG_MAX else math.inf


def _check_main_pre(n: int, q: int, m: int) -> None:
    if m < 4:
        raise ValueError(f"counting bound needs m >= 4, got m={m}")
    if n < 1:
        raise ValueError(f"need n >= 1, got n={n}")
    if q < 2:
        raise ValueError(f"need a prime power q >= 2, got q={q}")


def bound_main(n: int, q: int, m: int) -> float:
    """Closed-form counting upper bound on |A| for an m-general A in F_q^n;
    inf beyond the float range."""
    _check_main_pre(n, q, m)
    k = m // 2
    if q == 2:
        return _exp((math.lgamma(k + 1) + n * math.log(2)) / k) + k
    return k * _exp((n * math.log(q) - (k - 2) * math.log(q - 1) - math.log(q - 2)) / k)


def _coefficient_count(q: int, k: int) -> int:
    return 1 if q == 2 else count_nonzero_sum_vectors(q, k, gamma_is_zero=False)


def _iroot(x: int, k: int) -> int:
    """floor(x ** (1/k)) for x >= 0, by integer Newton iteration from above,
    started at (y's float root, rounded up, + 1) << t for y = x >> kt, t
    leaving the root about 40 bits: above the root, as x < (y + 1) 2^(kt),
    and close enough that a few steps settle it for any x and k."""
    if x < 2:
        return x
    t = max(0, -(-x.bit_length() // k) - 40)
    r = (math.ceil(math.exp(math.log(x >> k * t) / k) * (1 + 1e-9)) + 1) << t
    while True:
        nxt = ((k - 1) * r + x // r ** (k - 1)) // k
        if nxt >= r:
            return r
        r = nxt


def integer_cap(n: int, q: int, m: int) -> int:
    """max{x in Z : L * C(x, k) <= q^n}, in exact integer arithmetic.

    With P(x) = x(x-1)...(x-k+1) = k! C(x, k) and U = floor(k! q^n / L),
    (x-k+1)^k <= P(x) <= x^k puts the answer in [r, r + k - 1] for
    r = floor(U^(1/k)), so a few bisection steps with math.comb settle it
    (C(x, k) = 0 for x < k, so the answer is at least k - 1).
    """
    _check_main_pre(n, q, m)
    k = m // 2
    L = _coefficient_count(q, k)
    target = q**n
    lo = max(_iroot(math.factorial(k) * target // L, k), k - 1)
    hi = lo + k  # infeasible
    while hi - lo > 1:  # L*C(lo,k) <= target < L*C(hi,k)
        mid = (lo + hi) // 2
        if L * math.comb(mid, k) <= target:
            lo = mid
        else:
            hi = mid
    return lo


def _closed_form_cap(n: int, q: int, m: int) -> tuple[int, str] | None:
    """The dimension or the arc cap where one applies (never both: at
    n = 2 the dimension cap needs m = 4), else None."""
    if n < 1 or q < 2 or m < 3:
        raise ValueError(f"need n >= 1, a prime power q >= 2 and m >= 3, got n={n}, q={q}, m={m}")
    if m == n + 2 or q == 2 and m == n + 1 and n % 2:
        return n + 1, "dimension"
    if n == 2 and m == 3:
        return q + 2 - q % 2, "arc"
    return None


def search_cap(n: int, q: int, m: int) -> tuple[int | None, str | None]:
    """(cap, reason): the least cap on r_m(n,q) that applies, reason
    "counting" (integer_cap, m >= 4), "dimension" or "arc"; (None, None)
    where none does.  A tie keeps "counting"."""
    closed = _closed_form_cap(n, q, m)
    if m >= 4:
        cap = integer_cap(n, q, m)
        if closed is None or cap <= closed[0]:
            return cap, "counting"
    return closed or (None, None)


def within_cap(value: int, n: int, q: int, m: int) -> bool:
    """value <= search_cap(n, q, m)[0], True where no cap applies.  The
    counting cap is tested as L * C(value, k) <= q^n (C(x, k) does not
    decrease in x).  A left side of at most n floor(log2 q) bits is below
    2^(n floor(log2 q)) <= q^n, and then q^n is not computed."""
    closed = _closed_form_cap(n, q, m)
    if closed is not None and value > closed[0]:
        return False
    if m < 4:
        return True
    k = m // 2
    need = _coefficient_count(q, k) * math.comb(value, k)
    return need.bit_length() <= n * (q.bit_length() - 1) or need <= q**n


def refined_bound(n: int, q: int, m: int) -> float:
    """Largest real x with L * C(x, k) <= q^n.

    L is the exact coefficient-vector count (an implementation strengthening
    over its provable lower bound (q-1)^(k-2) * (q-2)), or 1 when q = 2.
    The root lies in [cap, cap + 1) for the integer cap and is found by
    bisection on log C(x, k), so no power of q is taken in floating point.
    inf when the root exceeds the float range.
    """
    _check_main_pre(n, q, m)
    k = m // 2
    log_target = n * math.log(q) - math.log(_coefficient_count(q, k)) + math.lgamma(k + 1)
    if log_target / k >= _LOG_MAX - 1e-9:  # margin for rounding
        return math.inf
    cap = integer_cap(n, q, m)

    def excess(x: float) -> float:
        return sum(math.log(x - i) for i in range(k)) - log_target

    lo, hi = float(cap), float(cap + 1)
    while hi - lo > 1e-12 * hi:
        mid = (lo + hi) / 2
        if excess(mid) <= 0:
            lo = mid
        else:
            hi = mid
    return (lo + hi) / 2


def h_eval(q: int, m: int, t: float) -> float:
    """h(t) = t^(-(q-1)/m) * (1 - t^q)/(1 - t) on (0, 1)."""
    if not 0.0 < t < 1.0:
        raise ValueError(f"t must lie in (0,1), got {t}")
    return t ** (-(q - 1) / m) * (1.0 - t**q) / (1.0 - t)


def h_deriv(q: int, m: int, t: float) -> float:
    """Closed-form derivative of h; sign change brackets the minimizer."""
    if not 0.0 < t < 1.0:
        raise ValueError(f"t must lie in (0,1), got {t}")
    bracket = (q + m - 1) * t - (q - 1) - t**q * ((q - 1) * (m - 1) * (1.0 - t) + m)
    return t ** (-(q - 1) / m - 1.0) / (m * (1.0 - t) ** 2) * bracket


def _log_h(q: int, m: int, t: float) -> float:
    return -(q - 1) / m * math.log(t) + math.log((1.0 - t**q) / (1.0 - t))


def minimize_h(q: int, m: int, tol: float = 1e-12, max_iter: int = 200):
    """Ternary search for min_t h(t) on (0,1); h is convex there.

    The search compares log h, which has the same minimizer and stays in
    the float range where t^(-(q-1)/m) does not; h(t_star) <= h(1-) = q.
    Returns (t_star, h(t_star), iterations).
    """
    lo, hi = 0.0, 1.0
    it = 0
    while hi - lo > tol and it < max_iter:
        m1 = lo + (hi - lo) / 3.0
        m2 = hi - (hi - lo) / 3.0
        if _log_h(q, m, m1) <= _log_h(q, m, m2):
            hi = m2
        else:
            lo = m1
        it += 1
    t_star = (lo + hi) / 2.0
    return t_star, h_eval(q, m, t_star), it


def _bennett_applies(q: int, m: int) -> bool:
    """Bennett's parity hypothesis: q odd, or m and q both even."""
    return q % 2 == 1 or m % 2 == 0


def _check_bennett_pre(q: int, m: int, n: int | None = None) -> None:
    if not _bennett_applies(q, m):
        raise ValueError(
            f"parity hypothesis violated: need q odd, or m and q both even (q={q}, m={m})"
        )
    if n is not None and not 3 <= m <= n + 2:
        raise ValueError(f"need 3 <= m <= n+2, got m={m}, n={n}")
    if m < 3:
        raise ValueError(f"need m >= 3, got m={m}")


def _bennett_at(n: int, m: int, h_min: float) -> float:
    return 2 * m + _exp(math.log(m) + n * math.log(h_min))


def _mu_bennett_at(q: int, h_min: float) -> float:
    return math.log(h_min) / math.log(q)


def bennett_bound(n: int, q: int, m: int):
    """Bennett's bound 2m + m*(min h)^n, inf beyond the float range;
    returns (bound, t_star)."""
    _check_bennett_pre(q, m, n)
    t_star, h_min, _ = minimize_h(q, m)
    return _bennett_at(n, m, h_min), t_star


def mu_upper_main(m: int) -> float:
    """Growth-rate bound 1/floor(m/2), independent of q."""
    if m < 4:
        raise ValueError(f"counting bound needs m >= 4, got m={m}")
    return 1.0 / (m // 2)


def mu_upper_bennett(q: int, m: int) -> float:
    """Growth-rate bound log_q(min h) from Bennett's bound."""
    _check_bennett_pre(q, m)
    _, h_min, _ = minimize_h(q, m)
    return _mu_bennett_at(q, h_min)


def bennett_lower_estimate(n: int, q: int, m: int) -> float:
    """Lower estimate m*(m/q)^((q-1)n/m) for Bennett's bound, valid once the
    minimizer lies in (1/m, q/m), detected via the derivative signs."""
    _check_bennett_pre(q, m)
    if not (h_deriv(q, m, 1.0 / m) < 0 and q / m < 1 and h_deriv(q, m, q / m) > 0):
        raise ValueError(
            f"estimate not applicable at q={q}, m={m}: "
            "need h'(1/m) < 0 and h'(q/m) > 0"
        )
    return m * (m / q) ** ((q - 1) * n / m)


# -- reports -------------------------------------------------------------------


@record
class BoundReport:
    """Evaluated bounds at one (n, q, m); None marks inapplicable fields.

    main/refined/mu_main need m >= 4; the bennett fields need the parity
    hypothesis (q odd, or m and q both even) and n >= m - 2.
    """

    n: int
    q: int
    m: int
    k: int
    main: float | None
    refined: float | None
    bennett: float | None
    t_star: float | None
    mu_main: float | None
    mu_bennett: float | None


def bound_report(n: int, q: int, m: int) -> BoundReport:
    """Every bound that applies at (n, q, m), for any m >= 3 and n >= 1."""
    if m < 3:
        raise ValueError(f"need m >= 3, got m={m}")
    if n < 1:
        raise ValueError(f"need n >= 1, got n={n}")
    k = m // 2
    main = refined = mu_main = None
    if m >= 4:
        main = bound_main(n, q, m)
        refined = refined_bound(n, q, m)
        mu_main = mu_upper_main(m)
    bennett = t_star = mu_bennett = None
    if _bennett_applies(q, m) and n >= m - 2:  # bennett_bound's preconditions
        t_star, h_min, _ = minimize_h(q, m)  # once for both fields
        bennett = _bennett_at(n, m, h_min)
        mu_bennett = _mu_bennett_at(q, h_min)
    return BoundReport(n, q, m, k, main, refined, bennett, t_star, mu_main, mu_bennett)


def _fmt(x: float | None) -> str:
    return "NA" if x is None else f"{x:.6g}"


CSV_HEADER = "q,m,n,k,main,refined,bennett,t_star,mu_main,mu_bennett"


def reports_to_csv(reports) -> str:
    lines = ["format=1", CSV_HEADER]
    for r in reports:
        lines.append(
            f"{r.q},{r.m},{r.n},{r.k},{_fmt(r.main)},{_fmt(r.refined)},"
            f"{_fmt(r.bennett)},{_fmt(r.t_star)},{_fmt(r.mu_main)},{_fmt(r.mu_bennett)}"
        )
    return "\n".join(lines) + "\n"


# -- published-table reproduction ----------------------------------------------

TABLE1_Q_COLUMNS = (2, 3, 4, 5, 7, 8, 9, 11)
TABLE1_M_ROWS = (3, 4, 5, 6, 7, 8)


def round_half_up(x: float, places: int = 3) -> float:
    shift = 10**places
    return math.floor(x * shift + 0.5) / shift


def table1_grid() -> dict[tuple[int, int], float]:
    """Recomputed log_q(min h) for each applicable (m, q) cell, rounded
    half-up to 3 decimals."""
    grid = {}
    for m in TABLE1_M_ROWS:
        for q in TABLE1_Q_COLUMNS:
            if _bennett_applies(q, m):
                grid[(m, q)] = round_half_up(mu_upper_bennett(q, m))
    return grid


def table2_rows() -> list[tuple[int, str]]:
    """(m, cell) rows for m = 4..8; cells are 1/floor(m/2) with the ceiling
    convention at 3 decimals, printed in the leading-dot style."""
    rows = []
    for m in range(4, 9):
        k = m // 2
        milli = -(-1000 // k)  # ceil(1000/k), exact in integers
        rows.append((m, f".{milli:03d}"))
    return rows
