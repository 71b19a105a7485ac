"""Steadiness check: run each workload several times and compare.

    python3 bench/steady.py --runs 10 --seconds 25
    python3 bench/steady.py --workload search-generic --runs 5

Each run is a fresh `run.py --trace 0` process with its own seed (1, 2,
...).  For every end-to-end metric, and every per-kind time a run reports,
prints the median, the quartiles (statistics.quantiles, n=4) and the
spread (q3 - q1) / median, flagged against the bounds in BENCHMARK.json.
Every end-to-end spread must stay within its bound, node counts,
limited_best and the share of failed operations must repeat exactly, and
every run must report correct; the exit code is 1 otherwise.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
UNITS = {"peak_rss_mb": "MB", "limited_best": "points"}


def one_run(workload: str, seed: int, seconds: float) -> dict:
    cmd = [sys.executable, str(ROOT / "bench" / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=True)
    lines = done.stdout.splitlines()
    detail = next(json.loads(ln[len("# detail "):]) for ln in lines if ln.startswith("# detail "))
    detail["result"] = json.loads(lines[-1])
    return detail


def spread(values: list[float]) -> tuple[float, float, float, float]:
    med = statistics.median(values)
    if len(values) < 2:
        return med, med, med, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med if med else 0.0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", action="append", choices=WORKLOADS)
    ap.add_argument("--runs", type=int, default=5)
    ap.add_argument("--seconds", type=float, default=None, help="default: run_seconds of BENCHMARK.json")
    args = ap.parse_args(argv)
    seconds = args.seconds if args.seconds is not None else SPEC["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}

    ok = True
    for workload in args.workload or WORKLOADS:
        runs = []
        for seed in range(1, args.runs + 1):
            runs.append(one_run(workload, seed, seconds))
            print(f"{workload} seed {seed}: run_s {runs[-1]['run_s']:.4f} s", file=sys.stderr, flush=True)
        attempted = [r["attempted"] for r in runs]
        failed = [r["failed"] for r in runs]
        print(f"== {workload}: {args.runs} runs of {seconds:g} s; attempted {attempted}; failed {failed}")
        series: dict[str, list[float]] = {}
        for r in runs:
            for name in ("setup_s", "run_s", "verify_s", "peak_rss_mb"):
                series.setdefault(name, []).append(r[name])
            for name, value in r["kinds"].items():
                series.setdefault(name, []).append(value)
        for name, values in series.items():
            med, q1, q3, sp = spread(values)
            flag = ""
            if name in bounds:
                ok = ok and sp <= bounds[name]
                flag = "  ABOVE BOUND" if sp > bounds[name] else ("  above bound/3" if sp > bounds[name] / 3 else "")
            unit = UNITS.get(name, "s")
            print(f"  {name:<18} median {med:.5g} {unit}  q1 {q1:.5g}  q3 {q3:.5g}  spread {sp:.3f}"
                  + (f" (bound {bounds[name]})" if name in bounds else "") + flag)
        checks = {
            "failed share": {f / a for f, a in zip(failed, attempted)},
            "node counts": {json.dumps(r["nodes"], sort_keys=True) for r in runs},
            "limited_best": {r["limited_best"] for r in runs},
        }
        for what, distinct in checks.items():
            same = len(distinct) == 1
            ok = ok and same
            print(f"  {what}: {'repeats exactly' if same else 'DIFFERS between runs'}: {sorted(distinct)}")
        wrong = [e for r in runs for e in r["errors"]]
        ok = ok and not wrong and all(r["result"]["correct"] for r in runs)
        print(f"  correct in every run: {not wrong}")
        for e in wrong[:10]:
            print(f"    {e}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
