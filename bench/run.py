"""Benchmark for mgeneral: one workload, one seed, a fixed time.

    python3 bench/run.py --workload verify --seed 1 --seconds 25 --trace 0

Run from a checkout of the repository; the package is imported from its
`src/`.  The run builds its inputs from the seed, then repeats whole rounds
of the workload's command lines through `mgeneral.cli.main` until another
round would overrun `--seconds`.  Every output is checked against
`independent.py`.  The last line of standard output is one JSON object:
with `--trace 0` the end-to-end metrics, with `--trace 1` the per-layer
metrics (a traced pass, an untraced pass for the tracing overhead, and the
fixed-input probes of `probes.py`).  Spans of a traced run go to
`bench/out/`.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

from speed import Meter
from workloads import CELLS, WORKLOADS, Outcome

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "bench" / "out"

SETUP_REPEATS = 11
# Operation kinds that re-verify a set from a file: `verify` and `check`.
VERIFY_KINDS = ("verify", "check")
SEARCH_KINDS = ("exact", "parallel", "limited", "greedy")
KIND_UNITS = {
    "construct": "construct_s",
    "verify": "verify_s",
    "bounds": "bounds_s",
    "exact": "exact_s",
    "parallel": "exact_parallel_s",
    "limited": "limited_s",
    "greedy": "greedy_s",
    "check": "check_s",
}


@dataclass
class RoundResult:
    op_seconds: list[float]  # one per operation, in workload order, scaled (speed.py)
    wall_seconds: float  # the operations' unscaled total
    failed: list[str]
    wrong: list[str]
    nodes: dict[str, int]  # search cell -> nodes explored
    limited_best: int
    greedy_checks: int
    fingerprints: list[tuple]


def invoke(cli, argv: list[str]) -> Outcome:
    """Run one command line through cli.main, capturing what a user sees."""
    out, err = io.StringIO(), io.StringIO()
    code, error = None, None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        t0 = time.perf_counter()
        try:
            code = cli.main(argv)
        except SystemExit as e:  # argparse rejects the command line
            code = e.code if isinstance(e.code, int) else 2
        except Exception as e:  # an escaped exception is a failed operation
            error = "".join(traceback.format_exception_only(type(e), e)).strip()
        seconds = time.perf_counter() - t0
    return Outcome(code, out.getvalue(), err.getvalue(), error, seconds)


def judge(op, o: Outcome, state: dict) -> tuple[str, str | None]:
    """("ok" | "fault" | "failed" | "wrong", message).  "fault" is a known
    fault showing exactly its recorded symptom.  Otherwise an operation
    fails when it cannot answer: an exception escapes, or it exits 2 where
    its check expects another answer.  Any other mismatch is wrong."""
    if op.known_fault is not None and op.known_fault.shows(o):
        return "fault", op.known_fault.what
    if o.error is not None:
        return "failed", o.error
    try:
        msg = op.check(o, state)
    except Exception as e:  # a missing or unreadable output file
        msg = f"output unreadable: {type(e).__name__}: {e}"
    if msg is None:
        return "ok", None
    if o.code == 2:
        return "failed", f"exit 2: {o.err.strip()}"
    return "wrong", msg


def run_round(cli, workload) -> RoundResult:
    for op in workload.ops:  # every round writes its outputs afresh
        if op.output is not None and op.output.exists():
            op.output.unlink()
    state: dict = {}
    failed, wrong, nodes, prints, op_seconds = [], [], {}, [], []
    limited_best = greedy_checks = 0
    wall = 0.0
    meter = Meter()
    for op in workload.ops:
        o = invoke(cli, op.argv)
        op_seconds.append(meter.scale(o.seconds))
        wall += o.seconds
        status, msg = judge(op, o, state)
        label = " ".join(Path(a).name if "/" in a else a for a in op.argv)
        if status == "fault":
            failed.append(f"{label}: [known fault] {msg}")
        elif status == "failed":
            failed.append(f"{label}: {msg}")
            wrong.append(f"{label}: unexpected failure: {msg}")
        elif status == "wrong":
            wrong.append(f"{label}: {msg}")
        written = op.output.read_text() if op.output is not None and op.output.exists() else None
        prints.append((o.code, o.out, o.err, o.error, written))
        if status == "ok" and written is not None and op.kind in SEARCH_KINDS:
            doc = json.loads(written)
            if op.cell:
                nodes[op.cell] = doc["nodes_explored"]
            if op.kind == "limited":
                limited_best += doc["value"]
            if op.kind == "greedy":
                greedy_checks += doc["nodes_explored"]
    return RoundResult(op_seconds, wall, failed, wrong, nodes, limited_best, greedy_checks, prints)


def run_rounds(cli, workload, budget: float) -> list[RoundResult]:
    """Whole rounds until another would overrun the budget; at least one."""
    rounds: list[RoundResult] = []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        rounds.append(run_round(cli, workload))
        last = time.perf_counter() - t0
        if time.perf_counter() - start + last > budget:
            return rounds


def setup_seconds(fields: list[tuple[int, int]]) -> list[float]:
    """Import mgeneral and build the workload's fields in fresh processes;
    each child scales its time by its own calibration loops (speed.py)."""
    code = (
        "import sys, time\n"
        "t0 = time.perf_counter()\n"
        f"sys.path.insert(0, {str(SRC)!r})\n"
        "import mgeneral\n"
        "from mgeneral.field import make_field\n"
        f"for p, d in {fields!r}:\n"
        "    make_field(p, d)\n"
        "spent = time.perf_counter() - t0\n"
        f"sys.path.insert(0, {str(ROOT / 'bench')!r})\n"
        "import statistics, speed\n"
        "loop = statistics.median(speed.calibrate() for _ in range(3))\n"
        "print(spent * speed.REFERENCE_S / loop)\n"
    )
    times = []
    for _ in range(SETUP_REPEATS):
        done = subprocess.run([sys.executable, "-I", "-c", code], capture_output=True, text=True, check=True)
        times.append(float(done.stdout))
    return times


def summarize(rounds: list[RoundResult], ops) -> dict:
    """Scaled times, each operation's median over the rounds, plus the
    counts that must repeat exactly."""
    med = statistics.median
    per_op = [med(r.op_seconds[i] for r in rounds) for i in range(len(ops))]
    kinds = {unit: sum(t for t, op in zip(per_op, ops) if op.kind == kind) for kind, unit in KIND_UNITS.items()}
    return {
        "rounds": len(rounds),
        "run_s": sum(per_op),
        "verify_s": sum(t for t, op in zip(per_op, ops) if op.kind in VERIFY_KINDS),
        "kinds": {k: v for k, v in kinds.items() if v > 0},
        "wall_s": med(r.wall_seconds for r in rounds),
        "nodes": rounds[0].nodes,
        "limited_best": rounds[0].limited_best,
        "greedy_checks": rounds[0].greedy_checks,
    }


def consistency_errors(rounds: list[RoundResult]) -> list[str]:
    """Wrong outputs, and any operation whose output changed between rounds."""
    errors = [w for r in rounds for w in r.wrong]
    first = rounds[0].fingerprints
    for i, r in enumerate(rounds[1:], start=2):
        for j, (a, b) in enumerate(zip(first, r.fingerprints)):
            if a != b:
                errors.append(f"round {i}: operation {j + 1} gave a different output than round 1")
    return errors


def report(workload: str, seed: int, rounds: list[RoundResult], summary: dict, extra: dict) -> None:
    """Human-readable lines before the JSON result."""
    attempted = sum(len(r.op_seconds) for r in rounds)
    failed = sum(len(r.failed) for r in rounds)
    print(f"workload {workload} seed {seed}: {summary['rounds']} round(s), "
          f"{attempted} operations attempted, {failed} failed")
    for name, (value, unit) in extra.items():
        print(f"  {name:<22} {value:.6g} {unit}")
    print(f"  {'run_s':<22} {summary['run_s']:.6g} s  (unscaled {summary['wall_s']:.6g} s)")
    for name, value in summary["kinds"].items():
        print(f"  {name:<22} {value:.6g} s")
    if summary["nodes"]:
        print(f"  {'limited_best':<22} {summary['limited_best']} points")
        print("  nodes " + " ".join(f"{c}={n}" for c, n in summary["nodes"].items()))
    for line in rounds[0].failed:
        print(f"  failed: {line}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "mgeneral" / "cli.py").is_file():
        print(f"error: no mgeneral package under {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import mgeneral
    from mgeneral import cli
    from mgeneral.field import make_field

    if Path(mgeneral.__file__).resolve().parent != SRC / "mgeneral":
        print(f"error: imported mgeneral from {mgeneral.__file__}, not {SRC}", file=sys.stderr)
        return 2

    OUT.mkdir(parents=True, exist_ok=True)
    work = OUT / f"work-{args.workload}-{os.getpid()}"
    work.mkdir()
    try:
        workload = WORKLOADS[args.workload](ROOT, work, args.seed)
        for p, d in workload.fields:  # the set-up the timed rounds must not pay
            make_field(p, d)
        if args.trace:
            result = traced_run(cli, workload, args)
        else:
            setups = setup_seconds(workload.fields)
            rounds = run_rounds(cli, workload, args.seconds)
            summary = summarize(rounds, workload.ops)
            errors = consistency_errors(rounds)
            rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            metrics = {
                "setup_s": (statistics.median(setups), "s"),
                "run_s": (summary["run_s"], "s"),
                "verify_s": (summary["verify_s"], "s"),
                "peak_rss_mb": (rss, "MB"),
            }
            report(args.workload, args.seed, rounds, summary,
                   {"setup_s": metrics["setup_s"], "peak_rss_mb": metrics["peak_rss_mb"]})
            detail = dict(summary, workload=args.workload, seed=args.seed, setup_s=metrics["setup_s"][0],
                          peak_rss_mb=rss, errors=errors)
            result = finish(rounds, errors, metrics, detail)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(result))
    return 0


def finish(rounds: list[RoundResult], errors: list[str], metrics: dict, detail: dict) -> dict:
    for e in errors:
        print(f"  WRONG: {e}")
    detail["attempted"] = sum(len(r.op_seconds) for r in rounds)
    detail["failed"] = sum(len(r.failed) for r in rounds)
    print("# detail " + json.dumps(detail))
    return {
        "correct": not errors,
        "attempted": detail["attempted"],
        "failed": detail["failed"],
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }


def traced_run(cli, workload, args) -> dict:
    from probes import ProbeError, run_probes
    from spans import LAYERS, Tracer

    plain = run_rounds(cli, workload, args.seconds / 2)
    tracer = Tracer(workload.name)
    tracer.install()
    try:
        traced = run_rounds(cli, workload, args.seconds / 2)
    finally:
        tracer.uninstall()
    spans_path = OUT / f"spans-{workload.name}-seed{args.seed}.jsonl"
    tracer.write(spans_path)

    errors = consistency_errors(plain + traced)
    try:
        metrics = run_probes(ROOT)
    except ProbeError as e:
        errors.append(f"probe: {e}")
        metrics = {}

    summary = summarize(plain, workload.ops)
    traced_wall = sum(r.wall_seconds for r in traced)
    for layer in LAYERS:
        metrics[f"{layer}.self_pct"] = (100 * tracer.self_s[layer] / traced_wall, "%")
        metrics[f"{layer}.calls"] = (tracer.calls[layer] // len(traced), "count")
    for cell in CELLS:
        metrics[f"search.nodes.{cell}"] = (summary["nodes"].get(cell, 0), "count")
    metrics["search.limited_best"] = (summary["limited_best"], "points")
    metrics["search.greedy_checks"] = (summary["greedy_checks"], "count")
    traced_run_s = summarize(traced, workload.ops)["run_s"]
    metrics["trace.run_s"] = (traced_run_s, "s")
    metrics["trace.overhead_s"] = (traced_run_s - summary["run_s"], "s")

    report(workload.name, args.seed, plain, summary, {})
    print(f"  traced run_s {traced_run_s:.6g} s, overhead {traced_run_s - summary['run_s']:.6g} s; "
          f"{len(tracer.spans)} spans in {spans_path.relative_to(ROOT)}, {tracer.dropped} not kept")
    for layer in LAYERS:
        print(f"  {layer:<14} self {tracer.self_s[layer]:.4f} s  calls {tracer.calls[layer]}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<46} {value:.6g} {unit}")
    detail = dict(summary, workload=workload.name, seed=args.seed, errors=errors,
                  self_s=tracer.self_s, calls=tracer.calls)
    return finish(plain + traced, errors, metrics, detail)


if __name__ == "__main__":
    sys.exit(main())
