"""Per-layer timings of direct calls to public functions on fixed inputs.

The inputs do not depend on the workload or its seed, so every traced run
reports the same cells.  Each probe also checks the call's answer, so a
faster but wrong layer cannot pass.  Times are medians of repeats, scaled
to the reference speed like the end-to-end times (speed.py); element
operations include the Python loop around them.
"""

from __future__ import annotations

import io
import os
import random
import subprocess
import sys
from pathlib import Path

import independent as ind
from spans import LAYERS
from speed import scaled_median
from workloads import EXACT_MAXIMA


class ProbeError(AssertionError):
    pass


def _expect(got, want, what: str) -> None:
    if got != want:
        raise ProbeError(f"{what}: got {got!r}, expected {want!r}")


def _ns_per_op(op, pairs, reps: int = 5) -> float:
    def loop():
        for a, b in pairs:
            op(a, b)

    return scaled_median(loop, reps)[0] / len(pairs) * 1e9


def _ns_per_unary(op, xs, reps: int = 5) -> float:
    def loop():
        for a in xs:
            op(a)

    return scaled_median(loop, reps)[0] / len(xs) * 1e9


def run_probes(root: Path) -> dict[str, tuple[float, str]]:
    from mgeneral import affine, arithmetic, bounds, constructions, search
    from mgeneral.field import Field, make_field

    out: dict[str, tuple[float, str]] = {}
    rng = random.Random(0)

    # -- field
    f3, f9, f256 = make_field(3), make_field(3, 2), make_field(2, 8)

    def pairs(q: int, nonzero: bool = False) -> list[tuple[int, int]]:
        lo = 1 if nonzero else 0
        return [(rng.randrange(lo, q), rng.randrange(lo, q)) for _ in range(4000)]

    out["field.add_ns.gf3"] = (_ns_per_op(f3.add, pairs(3)), "ns")
    out["field.add_ns.gf9"] = (_ns_per_op(f9.add, pairs(9)), "ns")
    out["field.add_ns.gf256"] = (_ns_per_op(f256.add, pairs(256)), "ns")
    out["field.sub_ns.gf9"] = (_ns_per_op(f9.sub, pairs(9)), "ns")
    out["field.mul_ns.gf9"] = (_ns_per_op(f9.mul, pairs(9)), "ns")
    out["field.mul_ns.gf256"] = (_ns_per_op(f256.mul, pairs(256)), "ns")
    out["field.inv_ns.gf9"] = (_ns_per_unary(f9.inv, [rng.randrange(1, 9) for _ in range(4000)]), "ns")
    g9 = ind.GF(3, 2, f9.modulus)
    for a, b in pairs(9):
        _expect((f9.add(a, b), f9.mul(a, b)), (g9.add(a, b), g9.mul(a, b)), f"GF(9) ops on {a}, {b}")
    secs, big = scaled_median(lambda: Field(2, 16), 3)
    _expect(big.mul(2, big.inv(2)), 1, "GF(65536) inverse")
    out["field.build_ms.gf65536"] = (secs * 1e3, "ms")

    # -- affine
    gf3, gf9 = ind.GF(3, 1, (0, 1)), ind.GF(3, 2, f9.modulus)
    f3_4 = [tuple(rng.randrange(3) for _ in range(4)) for _ in range(4)]
    gf9_5 = [tuple(rng.randrange(9) for _ in range(4)) for _ in range(5)]
    for name, fld, gf, pts in [("f3_4pts", f3, gf3, f3_4), ("gf9_5pts", f9, gf9, gf9_5)]:
        ps = affine.PointSet.of(fld, 4, pts)
        secs, r = scaled_median(lambda: [affine.affine_rank(ps) for _ in range(200)], 5)
        _expect(r[0], ind.rank(gf, sorted(set(pts))), f"affine_rank {name}")
        out[f"affine.affine_rank_us.{name}"] = (secs / 200 * 1e6, "us")

    cap4 = ind.random_m_general(gf3, 4, 3, 16, random.Random(1))
    sid8 = ind.random_m_general(ind.GF(2, 1, (0, 1)), 8, 4, 16, random.Random(1))
    for name, fld, n, m, pts, gf in [("cap", f3, 4, 3, cap4, gf3), ("sidon", make_field(2), 8, 4, sid8, ind.GF(2, 1, (0, 1)))]:
        p = ind.addable_points(gf, n, pts, m)[0]
        ps = affine.PointSet.of(fld, n, pts)
        secs, r = scaled_median(lambda: [affine.add_point_preserves(ps, p, m) for _ in range(50)], 5)
        _expect(r[0], True, f"add_point_preserves {name}")
        out[f"affine.add_point_preserves_us.{name}"] = (secs / 50 * 1e6, "us")

    sidon2048 = constructions.lower_bound_4general(22)
    secs, r = scaled_median(lambda: affine.is_m_general(sidon2048, 4), 3)
    _expect(r, True, "is_m_general sidon2048")
    out["affine.is_m_general_ms.sidon2048"] = (secs * 1e3, "ms")
    cap5 = affine.PointSet.of(f3, 5, ind.random_m_general(gf3, 5, 3, 30, random.Random(1)))
    secs, r = scaled_median(lambda: affine.is_m_general(cap5, 3), 3)
    _expect(r, True, "is_m_general cap")
    out["affine.is_m_general_ms.cap"] = (secs * 1e3, "ms")
    buf = io.StringIO()
    secs, _ = scaled_median(lambda: affine.write_point_set(io.StringIO(), sidon2048, 4), 3)
    out["affine.write_point_set_ms.sidon2048"] = (secs * 1e3, "ms")
    affine.write_point_set(buf, sidon2048, 4)
    text = buf.getvalue()
    secs, r = scaled_median(lambda: affine.read_point_set(io.StringIO(text)), 3)
    _expect(len(r[0]), 2048, "read_point_set sidon2048")
    out["affine.read_point_set_ms.sidon2048"] = (secs * 1e3, "ms")

    # -- arithmetic
    sidon64 = constructions.lower_bound_4general(12)
    secs, r = scaled_median(lambda: arithmetic.is_m_general_arithmetic(sidon64, 4), 1)
    _expect(r, True, "is_m_general_arithmetic sidon64")
    out["arithmetic.is_m_general_arithmetic_s.sidon64"] = (secs, "s")
    secs, r = scaled_median(lambda: arithmetic.is_m_general_arithmetic(cap5, 3), 3)
    _expect(r, True, "is_m_general_arithmetic cap")
    out["arithmetic.is_m_general_arithmetic_s.cap"] = (secs, "s")
    set9 = affine.PointSet.of(f9, 3, ind.random_m_general(gf9, 3, 4, 7, random.Random(1)))
    secs, r = scaled_median(lambda: arithmetic.is_m_general_arithmetic(set9, 4), 3)
    _expect(r, True, "is_m_general_arithmetic gf9")
    out["arithmetic.is_m_general_arithmetic_s.gf9"] = (secs, "s")
    sidon32 = constructions.lower_bound_4general(10)
    secs, r = scaled_median(lambda: arithmetic.is_weak_bk(sidon32, 2), 5)
    _expect(r, True, "is_weak_bk sidon32")
    out["arithmetic.is_weak_bk_ms.sidon32_k2"] = (secs * 1e3, "ms")
    f4 = make_field(2, 2)
    set4 = affine.PointSet.of(f4, 4, ind.random_m_general(ind.GF(2, 2, f4.modulus), 4, 4, 9, random.Random(1)))
    secs, r = scaled_median(lambda: arithmetic.verify_ksum_injectivity(set4, 2, 1), 5)
    _expect(r, True, "verify_ksum_injectivity gf4")
    out["arithmetic.verify_ksum_injectivity_ms.gf4_k2"] = (secs * 1e3, "ms")

    # -- constructions
    cube = constructions.cube_function(make_field(2, 11))
    secs, r = scaled_median(lambda: constructions.is_apn(cube), 3)
    _expect(bool(r), True, "is_apn gf2048")
    out["constructions.is_apn_ms.gf2048"] = (secs * 1e3, "ms")
    secs, r = scaled_median(lambda: constructions.lower_bound_4general(22), 3)
    _expect(len(r), 2048, "lower_bound_4general n22")
    out["constructions.lower_bound_4general_ms.n22"] = (secs * 1e3, "ms")

    # -- bounds
    for name, call, want in [
        ("bounds.refined_bound_us.q2m4", lambda: bounds.refined_bound(64, 2, 4), ind.refined_real(64, 2, 4)),
        ("bounds.refined_bound_us.q9m5", lambda: bounds.refined_bound(8, 9, 5), ind.refined_real(8, 9, 5)),
        ("bounds.minimize_h_us.q3m3", lambda: bounds.minimize_h(3, 3)[1], ind.h_min(3, 3)[1]),
        ("bounds.bound_report_us", lambda: bounds.bound_report(8, 3, 4).refined, ind.refined_real(8, 3, 4)),
    ]:
        secs, r = scaled_median(lambda: [call() for _ in range(50)], 5)
        if not ind.matches_6(f"{r[0]:.6g}", want):
            raise ProbeError(f"{name}: got {r[0]!r}, independent {want!r}")
        out[name] = (secs / 50 * 1e6, "us")
    secs, grid = scaled_median(bounds.table1_grid, 5)
    _expect(f".{round(grid[(3, 3)] * 1000):03d}", ind.table1_cell(3, 3), "table1_grid (3,3)")
    out["bounds.table1_grid_ms"] = (secs * 1e3, "ms")

    # -- search
    cert = search.SearchCertificate(
        n=10, q_spec="2^1:2", m=4, value=len(sidon32), exact=False, witness=sidon32.points,
        nodes_explored=0, prune_bound_used=None, seed=None, restarts=None, reductions=(),
        toolchain={},
    )
    secs, r = scaled_median(lambda: search.verify_certificate(cert), 3)
    _expect(r, True, "verify_certificate sidon32")
    out["search.verify_certificate_ms"] = (secs * 1e3, "ms")
    for name, n, q, m, nodes in [("sidon", 6, 2, 4, 100_000), ("generic", 3, 3, 3, 1_500)]:
        secs, c = scaled_median(lambda: search.search_exact(n, q, m, max_nodes=nodes, max_seconds=1e9), 1)
        out[f"search.nodes_per_s.{name}"] = (c.nodes_explored / secs, "1/s")
    secs, c = scaled_median(lambda: search.search_exact(3, 3, 3, max_seconds=1e9), 1)
    _expect((c.exact, c.value, ind.cap_ok(c.witness)), (True, EXACT_MAXIMA["q3n3m3"], True), "q3n3m3 exact")
    out["search.exact_s.q3n3m3"] = (secs, "s")
    out["search.nodes.q3n3m3"] = (c.nodes_explored, "count")
    one, c1 = scaled_median(lambda: search.search_exact(5, 2, 4, max_seconds=1e9), 3)
    two, c2 = scaled_median(lambda: search.search_exact(5, 2, 4, max_seconds=1e9, workers=2), 3)
    _expect((c1.value, c2.value, c2.witness), (7, 7, c1.witness), "q2n5m4 with 1 and 2 workers")
    out["search.exact_w1_s.q2n5m4"] = (one, "s")
    out["search.exact_w2_s.q2n5m4"] = (two, "s")
    out["search.parallel_speedup.q2n5m4"] = (one / two, "x")

    # -- cli: interpreter start, import and argument parsing, as a user pays it
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    cmd = [sys.executable, "-m", "mgeneral", "--version"]

    def start():
        done = subprocess.run(cmd, env=env, capture_output=True, text=True, check=True)
        return done.stdout.strip()

    secs, r = scaled_median(start, 5)
    _expect(r.startswith("mgeneral "), True, "mgeneral --version")
    out["cli.startup_ms"] = (secs * 1e3, "ms")

    for mod in LAYERS:
        text = (root / "src" / "mgeneral" / f"{mod}.py").read_text()
        out[f"{mod}.src_lines"] = (float(len(text.splitlines())), "lines")
    return out
