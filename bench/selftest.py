"""Tests of the benchmark's independent checks.

    python3 bench/selftest.py

Each check in independent.py is tested against a slower or more literal
form of its definition, and the maxima that workloads.py expects from the
exact search cells are re-derived here by an exhaustive search of our own.
"""

from __future__ import annotations

import math
import random
import sys
import unittest
from itertools import combinations, product
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import independent as ind  # noqa: E402
import workloads  # noqa: E402

F2 = ind.GF(2, 1, (0, 1))
F3 = ind.GF(3, 1, (0, 1))


def dependent_by_definition(gf: ind.GF, pts) -> bool:
    """Some coefficient vector, not all zero and summing to 0, kills pts."""
    for coeffs in product(range(gf.q), repeat=len(pts)):
        total = 0
        for c in coeffs:
            total = gf.add(total, c)
        if not any(coeffs) or total:
            continue
        acc = [0] * len(pts[0])
        for c, p in zip(coeffs, pts):
            acc = [gf.add(a, gf.mul(c, x)) for a, x in zip(acc, p)]
        if not any(acc):
            return True
    return False


def max_m_general(gf: ind.GF, n: int, m: int) -> int:
    """Largest m-general set in AG(n,q): depth-first over sets in lex order
    containing the origin (translations preserve m-generality), cut when
    the remaining points cannot beat the best size."""
    pts = list(product(range(gf.q), repeat=n))
    best = 1

    def grow(chosen: list, start: int) -> None:
        nonlocal best
        best = max(best, len(chosen))
        for i in range(start, len(pts)):
            if len(chosen) + len(pts) - i <= best:
                return
            if ind.can_join(gf, chosen, pts[i], m):
                chosen.append(pts[i])
                grow(chosen, i + 1)
                chosen.pop()

    grow([pts[0]], 1)
    return best


class FieldTests(unittest.TestCase):
    def test_moduli_irreducible(self):
        for (p, d), mod in ind.MODULI.items():
            self.assertTrue(ind.is_irreducible(p, mod), (p, d))
        self.assertFalse(ind.is_irreducible(2, (1, 0, 1)))  # (x + 1)^2
        self.assertFalse(ind.is_irreducible(3, (2, 0, 1)))  # (x + 1)(x + 2)

    def test_field_axioms(self):
        for q in (4, 5, 8, 9):
            gf = ind.prime_power_field(q)
            els = range(q)
            for a, b, c in product(els, repeat=3):
                self.assertEqual(gf.mul(a, gf.add(b, c)), gf.add(gf.mul(a, b), gf.mul(a, c)))
                self.assertEqual(gf.mul(a, gf.mul(b, c)), gf.mul(gf.mul(a, b), c))
            for a in range(1, q):
                self.assertEqual(gf.mul(a, gf.inv(a)), 1)
                self.assertEqual(gf.add(a, gf.neg(a)), 0)

    def test_known_products(self):
        gf4 = ind.GF(2, 2, (1, 1, 1))  # x^2 = x + 1
        self.assertEqual(gf4.mul(2, 2), 3)
        gf9 = ind.GF(3, 2, (1, 0, 1))  # x^2 = -1
        self.assertEqual(gf9.mul(3, 3), 2)
        self.assertEqual(gf9.add(5, 1), 3)  # (2 + x) + 1 = x
        self.assertEqual(gf9.add(5, 7), 0)  # (2 + x) + (1 + 2x) = 0

    def test_q_spec_round_trip(self):
        for (p, d), mod in ind.MODULI.items():
            self.assertEqual(ind.parse_q_spec(ind.q_spec(p, d, mod)), (p, d, mod))


class SetTestTests(unittest.TestCase):
    def test_sidon_against_definition(self):
        rng = random.Random(3)
        for _ in range(200):
            codes = rng.sample(range(32), rng.randrange(2, 9))
            dep = any(a ^ b ^ c ^ d == 0 for a, b, c, d in combinations(codes, 4))
            self.assertEqual(ind.sidon_ok(codes), not dep)

    def test_cap_against_rank(self):
        rng = random.Random(4)
        ambient = list(product(range(3), repeat=3))
        for _ in range(200):
            pts = rng.sample(ambient, rng.randrange(3, 9))
            collinear = any(not ind.independent(F3, t) for t in combinations(sorted(pts), 3))
            self.assertEqual(ind.cap_ok(pts), not collinear)

    def test_rank_against_definition(self):
        rng = random.Random(5)
        for q in (3, 4, 5, 9):
            gf = ind.prime_power_field(q)
            for _ in range(30):
                pts = [tuple(rng.randrange(q) for _ in range(2)) for _ in range(rng.randrange(2, 4))]
                if len(set(pts)) == len(pts):
                    self.assertEqual(ind.independent(gf, pts), not dependent_by_definition(gf, pts), (q, pts))

    def test_can_join_and_addable(self):
        rng = random.Random(6)
        for gf, n, m, size in [(F3, 3, 3, 5), (F2, 5, 4, 5), (ind.prime_power_field(4), 2, 3, 3)]:
            pts = ind.random_m_general(gf, n, m, size, rng)
            self.assertTrue(ind.m_general(gf, pts, m))
            addable = ind.addable_points(gf, n, pts, m)
            for p in product(range(gf.q), repeat=n):
                joined = p not in pts and ind.m_general(gf, pts + [p], m)
                self.assertEqual(joined, p in addable, (n, m, p))

    def test_any_n_plus_2_points_dependent(self):
        rng = random.Random(7)
        gf9 = ind.prime_power_field(9)
        ambient = list(product(range(9), repeat=2))
        for _ in range(200):
            self.assertFalse(ind.independent(gf9, rng.sample(ambient, 4)))

    def test_late_violation(self):
        rng = random.Random(8)
        for gf, n, m, size in [(F3, 4, 3, 12), (F2, 6, 4, 8), (ind.prime_power_field(5), 3, 4, 6)]:
            pts = ind.random_m_general(gf, n, m, size, rng)
            x, dep = ind.late_violation(gf, pts, m)
            self.assertNotIn(x, pts)
            self.assertIn(x, dep)
            self.assertFalse(ind.independent(gf, sorted(dep)))
            self.assertFalse(ind.m_general(gf, pts + [x], m))

    def test_earliest_dependency(self):
        rng = random.Random(9)
        for gf, n, m, size in [(F3, 4, 3, 12), (F2, 6, 4, 8), (ind.prime_power_field(4), 4, 4, 7)]:
            pts = sorted(ind.random_m_general(gf, n, m, size, rng))
            for x in rng.sample([p for p in product(range(gf.q), repeat=n) if p not in pts], 20):
                first = next((set(sub) for s in range(3, m + 1) for sub in combinations(sorted(pts + [x]), s)
                              if not ind.independent(gf, sub)), set())
                self.assertEqual(set(ind.earliest_dependency(gf, pts, x, m)), first, (m, x))

    def test_cube_graph(self):
        moduli = {2: (1, 1, 1), 3: (1, 1, 0, 1), 4: (1, 1, 0, 0, 1), 5: (1, 0, 1, 0, 0, 1)}
        for d, mod in moduli.items():
            pts = ind.cube_graph(d, mod)
            self.assertEqual(len(set(pts)), 2**d)
            self.assertTrue(ind.sidon_ok(ind.code_of(p, 2) for p in pts))


class BoundTests(unittest.TestCase):
    def test_coefficient_count_k2(self):
        # a + b = 1 with a, b nonzero: every a except 0 and 1 works
        for q in (3, 4, 5, 7, 8, 9, 11):
            self.assertEqual(ind.coefficient_count(q, 2), q - 2)

    def test_integer_cap_by_scan(self):
        for n, q, m in [(4, 2, 4), (6, 2, 4), (3, 3, 4), (4, 3, 6), (2, 5, 4), (5, 4, 5), (3, 9, 5)]:
            k = m // 2
            L = ind.coefficient_count(q, k)
            x = k - 1
            while L * math.comb(x + 1, k) <= q**n:
                x += 1
            self.assertEqual(ind.integer_cap(n, q, m), x)
            self.assertTrue(x <= ind.refined_real(n, q, m) < x + 1)

    def test_refined_closed_form_q2(self):
        for n in (2, 4, 6, 8, 12):
            self.assertAlmostEqual(ind.refined_real(n, 2, 4), (1 + math.sqrt(1 + 2 ** (n + 3))) / 2, places=9)

    def test_h_min_against_grid(self):
        for q, m in [(2, 4), (3, 3), (3, 4), (11, 3), (5, 6)]:
            t, h = ind.h_min(q, m)

            def h_at(s: float) -> float:
                return s ** (-(q - 1) / m) * (1 - s**q) / (1 - s)

            grid = min(h_at(i / 20000) for i in range(1, 20000))
            self.assertLessEqual(h, grid + 1e-12)
            self.assertAlmostEqual(h, h_at(t), places=12)

    def test_published_values(self):
        self.assertAlmostEqual(ind.h_min(2, 4)[1], 1.755, delta=5e-4)
        for (q, m), cell in workloads.TABLE1_PUBLISHED.items():
            self.assertLessEqual(abs(float(ind.table1_cell(q, m)) - float(cell)), 0.002)
        self.assertEqual([ind.table2_cell(m) for m in range(4, 9)], workloads.TABLE2_PUBLISHED)

    def test_matches_6(self):
        self.assertTrue(ind.matches_6("13.2377", 13.237739))
        self.assertFalse(ind.matches_6("13.2378", 13.237739))
        self.assertTrue(ind.matches_6("6.074e+09", 6074001000.45))
        self.assertFalse(ind.matches_6("6.075e+09", 6074001000.45))


class ExactMaximaTests(unittest.TestCase):
    def test_exact_cells(self):
        cells = {"q2n4m4": (F2, 4, 4), "q2n5m4": (F2, 5, 4), "q3n3m3": (F3, 3, 3),
                 "q5n2m3": (ind.prime_power_field(5), 2, 3), "q3n3m4": (F3, 3, 4)}
        for cell, (gf, n, m) in cells.items():
            self.assertEqual(max_m_general(gf, n, m), workloads.EXACT_MAXIMA[cell], cell)
        self.assertEqual(workloads.EXACT_MAXIMA["q9n2m4"], 2 + 1)  # n + 1, see above


if __name__ == "__main__":
    unittest.main()
