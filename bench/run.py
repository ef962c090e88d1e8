"""minrank-atlas benchmark.

    python3 bench/run.py --workload {atlas-diff,certificates,graph-queries,all}
                         --seed N --seconds S --trace {0,1}

Run from the root of a source checkout (the program is imported from
./src, its data read from ./data).  Operations call
`minrank_atlas.cli.main(argv)` in this process, one closed-loop client, no
`--jobs`.  The loop repeats passes (fixed-size operation lists, see
workloads.py) until --seconds have passed.  Outputs are checked after the
loop, outside every timed region.

--trace 0 reports the end-to-end metrics:
  setup_s      median wall time of a fresh interpreter running
               `python -m minrank_atlas.cli bounds --atlas 1` (import + data load)
  wall_s       median wall time of one pass
  ops_per_s    operations completed per second of operation time
  op_p50_ms    median operation latency
  peak_rss_mb  ru_maxrss of this process, read before the output checks
Printed as well, but not part of the result: failed_frac (failed / attempted),
once a run has >= 200 operations op_p95_ms, the median unscaled pass time
wall_unscaled_s and the median host_speed scale.  Every reported time is
scaled to a reference host speed; see REFERENCE_LOOP_S.

--trace 1 alternates untraced and traced passes over the same inputs (pass 0)
and reports `<module>.<function>.self_ms` (median per traced pass) and
`.calls` (per pass) for each layer in tracing.LAYERS, the counters in
tracing.COUNTERS, and trace.overhead_frac (traced minus untraced median pass
time, over untraced).  The spans of the last traced pass are written to
.bench_work/spans-<workload>.tsv.

The last stdout line is one JSON object:
{"correct", "attempted", "failed", "metrics"}.  `--workload all` runs each
workload in its own process and prefixes metric names with the workload.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import importlib.util
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from tracing import LAYERS, Tracer
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
DATA_FILES = ("atlas.g6", "forbidden_mr2.g6", "table1.tsv", "witnesses.txt")
SETUP_RUNS = 7
SETUP_ARGV = ["-m", "minrank_atlas.cli", "bounds", "--atlas", "1"]
SETUP_ROW = "1\t1\t0\t0\t0\t0\tT\t0\t0\t0\t\t\t\tF\tF\tT\n"

# Host speed.  On shared vCPUs the speed of pure-Python code drifts by up to
# 2x over tens of seconds, far more than the bounds in BENCHMARK.json allow,
# and a fixed integer loop slows with the program.  So every timed unit (a
# pass, or one set-up run) is scaled by REFERENCE_LOOP_S over the loop's time
# taken just before and just after it: reported times are seconds at the
# reference speed, about the loop's median time on a 2-vCPU x86-64 VM
# with Python 3.11.  The unscaled pass time is printed as well (wall_unscaled_s).
LOOP_N = 50_000
REFERENCE_LOOP_S = 0.004


class BenchError(Exception):
    """The checkout cannot be benchmarked (missing program, data or oracle)."""


def preflight(workload: str) -> None:
    if not (ROOT / "src" / "minrank_atlas" / "cli.py").is_file():
        raise BenchError(f"no program source at {ROOT / 'src' / 'minrank_atlas'}")
    missing = [f for f in DATA_FILES if not (ROOT / "data" / f).is_file()]
    if missing:
        raise BenchError(f"missing data files: {', '.join(missing)}")
    needs_nx = workload == "all" or WORKLOADS[workload].needs_networkx
    if needs_nx and importlib.util.find_spec("networkx") is None:
        raise BenchError("networkx is required for the graph-queries oracles")


def import_cli():
    sys.path.insert(0, str(ROOT / "src"))
    cli = importlib.import_module("minrank_atlas.cli")
    if Path(cli.__file__).resolve().parent != ROOT / "src" / "minrank_atlas":
        raise BenchError(f"imported {cli.__file__}, not the checkout's source")
    return cli


def environment(workload, inputs_digest: str | None) -> dict:
    def git_sha() -> str | None:
        # The ceiling keeps git from reporting a repository above the checkout.
        env = {**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)}
        try:
            proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                                  capture_output=True, text=True, timeout=30)
        except (OSError, subprocess.SubprocessError):
            return None
        return proc.stdout.strip() if proc.returncode == 0 else None

    return {
        "python": sys.version.split()[0],
        "nproc": len(os.sched_getaffinity(0)),
        "git_sha": git_sha(),
        "data_sha256": {f: hashlib.sha256((ROOT / "data" / f).read_bytes()).hexdigest()
                        for f in DATA_FILES},
        "workload": workload,
        "inputs_sha256": inputs_digest,
    }


def loop_s() -> float:
    """Best of three timings of a fixed integer loop: the host's current speed."""
    best = float("inf")
    for _ in range(3):
        t0 = time.perf_counter()
        acc = 0
        for i in range(LOOP_N):
            acc += i * i
        best = min(best, time.perf_counter() - t0)
    return best


def measure_setup() -> tuple[float, int]:
    """Median wall time, at the reference host speed, of a fresh interpreter
    answering one `bounds` query, and the number of those runs whose output
    was wrong."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p)
    argv = [sys.executable, *SETUP_ARGV]
    times, failed = [], 0
    for i in range(SETUP_RUNS + 1):  # the first run writes bytecode caches
        before = loop_s()
        t0 = time.perf_counter()
        proc = subprocess.run(argv, cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=120)
        dt = time.perf_counter() - t0
        failed += proc.returncode != 0 or proc.stdout != SETUP_ROW
        if i:
            times.append(dt * 2 * REFERENCE_LOOP_S / (before + loop_s()))
    return statistics.median(times), failed


def call(cli, argv: list[str]) -> tuple[int | None, str]:
    out = io.StringIO()
    try:
        with redirect_stdout(out), redirect_stderr(io.StringIO()):
            rc = cli.main(argv)
    except Exception:  # a crash is a failed op, not a crashed benchmark
        return None, traceback.format_exc()
    return rc, out.getvalue()


def run_pass(cli, ops, executed, latencies) -> tuple[float, float]:
    """Run ops back to back.  Return the pass's summed op time in seconds at
    the reference host speed, and the scale that converted it."""
    before = loop_s()
    times = []
    for op in ops:
        t0 = time.perf_counter()
        outs = [call(cli, argv) for argv in op.calls]
        times.append(time.perf_counter() - t0)
        executed.append((op, outs))
    scale = 2 * REFERENCE_LOOP_S / (before + loop_s())
    latencies.extend(dt * scale for dt in times)
    return sum(times) * scale, scale


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 workdir: Path, spans_path: Path | None) -> tuple[dict, list[str]]:
    cli = import_cli()
    wl = WORKLOADS[name](seed, workdir)
    executed: list = []
    metrics: dict[str, tuple[float, str]] = {}
    failed = 0

    if not trace:
        setup_s, setup_failed = measure_setup()
        failed += setup_failed
        metrics["setup_s"] = (setup_s, "s")

    # Gate ops, or else the first op of pass 0, warm the process up untimed.
    uid = 0
    warm_up = wl.gate_ops() or wl.build_pass(0, uid)[:1]
    run_pass(cli, warm_up, executed, [])

    latencies: list[float] = []
    pass_times: list[float] = []
    scales: list[float] = []  # per untraced pass
    traced_times: list[float] = []
    traced_totals: list[tuple[dict, dict]] = []  # (layer totals, counts) per traced pass
    tracer = None
    start = time.perf_counter()
    k = 0
    while True:
        if not trace:
            uid += 1
            total, scale = run_pass(cli, wl.build_pass(k, uid), executed, latencies)
            pass_times.append(total)
            scales.append(scale)
            k += 1
        else:
            # Same inputs (pass 0) each time; alternate which side runs first.
            for traced in ((False, True) if k % 2 == 0 else (True, False)):
                uid += 1
                ops = wl.build_pass(0, uid)
                if not traced:
                    total, scale = run_pass(cli, ops, executed, latencies)
                    pass_times.append(total)
                    scales.append(scale)
                    continue
                tracer = Tracer()
                with tracer.install():
                    total, scale = run_pass(cli, ops, executed, [])
                traced_times.append(total)
                traced_totals.append(({layer: (ms * scale, calls) for layer, (ms, calls)
                                       in tracer.layer_totals().items()}, tracer.counts))
            k += 1
        if time.perf_counter() - start >= seconds:
            break
    # Read before the checks import networkx, so that only the program counts.
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    causes = [cause for cause in (op.check(outs) for op, outs in executed) if cause]
    failed += len(causes)
    attempted = len(executed) + (0 if trace else SETUP_RUNS + 1)
    summary: dict = {"failed_frac": (failed / attempted, "ratio"),
                     "passes": (len(pass_times), "count"),
                     "wall_unscaled_s": (statistics.median(
                         t / sc for t, sc in zip(pass_times, scales)), "s"),
                     "host_speed": (statistics.median(scales), "ratio")}

    if not trace:
        metrics["wall_s"] = (statistics.median(pass_times), "s")
        metrics["ops_per_s"] = (len(latencies) / sum(latencies), "1/s")
        metrics["op_p50_ms"] = (statistics.median(latencies) * 1e3, "ms")
        metrics["peak_rss_mb"] = (peak_rss_mb, "MB")
        if len(latencies) >= 200:  # at least ten samples above the 95th percentile
            summary["op_p95_ms"] = (statistics.quantiles(latencies, n=20)[18] * 1e3, "ms")
        summary["ops"] = (len(latencies), "count")
    else:
        # Every traced pass runs the same inputs: counts are taken from the
        # first, self time is the median over all of them.
        first_totals, first_counts = traced_totals[0]
        for layer in LAYERS:
            self_ms = statistics.median(totals[layer][0] for totals, _ in traced_totals)
            metrics[f"{layer}.self_ms"] = (self_ms, "ms")
            metrics[f"{layer}.calls"] = (first_totals[layer][1], "count")
        for key, count in first_counts.items():
            metrics[key] = (count, "count")
        untraced = statistics.median(pass_times)
        metrics["trace.overhead_frac"] = (
            (statistics.median(traced_times) - untraced) / untraced, "ratio")
        if spans_path is not None:
            tracer.write_spans(spans_path)

    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m: {"value": v, "unit": u} for m, (v, u) in metrics.items()},
    }
    env = environment(name, wl.inputs_digest())
    lines = [f"env {json.dumps(env, sort_keys=True)}"]
    lines += [f"{m} {v:.6g} {u}" for m, (v, u) in {**metrics, **summary}.items()]
    lines += [f"failure {c}" for c in causes[:10]]
    return result, lines


def run_all(args) -> int:
    """Each workload in its own process; prints each one's lines, then a
    combined result keyed '<workload>.<metric>'."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace)]
        proc = subprocess.run(argv, capture_output=True, text=True, timeout=900)
        lines = proc.stdout.splitlines()
        if proc.returncode != 0 or not lines:
            sys.stderr.write(proc.stderr)
            raise BenchError(f"workload {name} exited {proc.returncode}")
        for line in lines[:-1]:
            print(f"[{name}] {line}")
        res = json.loads(lines[-1])
        combined["correct"] &= res["correct"]
        combined["attempted"] += res["attempted"]
        combined["failed"] += res["failed"]
        for metric, value in res["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    try:
        preflight(args.workload)
        if args.workload == "all":
            return run_all(args)
        os.chdir(ROOT)
        scratch = ROOT / ".bench_work"
        scratch.mkdir(exist_ok=True)
        workdir = Path(tempfile.mkdtemp(dir=scratch))
        spans = scratch / f"spans-{args.workload}.tsv" if args.trace else None
        try:
            result, lines = run_workload(args.workload, args.seed, args.seconds,
                                            bool(args.trace), workdir, spans)
        finally:
            shutil.rmtree(workdir)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print("\n".join(lines))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
