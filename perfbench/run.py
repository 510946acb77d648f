#!/usr/bin/env python3
"""Pipeline benchmark for motiongraph: one workload, one seed, one run.

    python3 perfbench/run.py --workload build_long|synth|cli_run --seed N --seconds T --trace 0|1

Run from the root of a checkout; the library is imported from its
``src/``. Inputs are generated from ``--seed``. The set-up runs in one
worker process and the timed operations in another (``workloads.py``), one
operation at a time, with BLAS limited to ``nproc`` threads. Every output is
checked after its timer stops.

The last line of standard output is one JSON object: ``correct``,
``attempted`` and ``failed`` operations, and ``metrics``. With ``--trace 0``
the metrics are the end-to-end ones (``setup_s``, ``op_p50_s``,
``peak_rss_mb``); with ``--trace 1`` the per-layer ones from a traced run.
An operation that is not ok counts as failed, so
``ok_ratio = (attempted - failed) / attempted``. The lines before it give
every metric with its unit and sample count, the environment stamp and the
output digests. Results and spans are kept under ``perfbench/_work/``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
WORKLOADS = ("build_long", "synth", "cli_run")
SETUP_REPEATS = {"build_long": 5, "synth": 2, "cli_run": 15}
TIME_LIMIT_S = 175  # whole run, both workers


def _worker(args: list[str], env: dict, deadline: float) -> None:
    """Run one worker process in its own session; kill the session if it overruns."""
    proc = subprocess.Popen(
        [sys.executable, str(BENCH_DIR / "workloads.py"), *args],
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        start_new_session=True,
    )
    try:
        output, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise SystemExit(f"perfbench: worker {args[0]} ran past the {TIME_LIMIT_S} s limit")
    if proc.returncode != 0:
        sys.stderr.write(output.decode(errors="replace")[-4000:])
        raise SystemExit(f"perfbench: worker {args[0]} failed with exit code {proc.returncode}")


def percentile_support(n: int) -> int | None:
    """Highest whole percentile with at least ten samples above it, if any."""
    if n < 20:
        return None
    return math.floor(100 * (1 - 10 / n))


def _fmt(value: float) -> str:
    return f"{value:.6g}"


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        p.error("--seed must be >= 0 and --seconds > 0")

    deadline = time.monotonic() + TIME_LIMIT_S
    root = Path.cwd()
    if not (root / "src" / "motiongraph" / "__init__.py").is_file():
        print(
            f"perfbench: {root} holds no src/motiongraph; run from the root of a motiongraph checkout",
            file=sys.stderr,
        )
        return 2

    work = BENCH_DIR / "_work"
    tag = f"{args.workload}-s{args.seed}-t{args.trace}"
    run_dir = work / tag
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(root / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    threads = str(len(os.sched_getaffinity(0)))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = threads
    common = [
        "--workload", args.workload, "--seed", str(args.seed), "--dir", str(run_dir),
        "--digests", str(work / "digests" / f"{args.workload}-s{args.seed}.json"),
    ]
    try:
        _worker(
            ["setup", *common, "--repeats", str(SETUP_REPEATS[args.workload]),
             "--out", str(run_dir / "setup.json")],
            env, deadline,
        )
        _worker(
            ["measure", *common, "--seconds", str(args.seconds), "--trace", str(args.trace),
             "--out", str(run_dir / "measure.json"), "--spans", str(run_dir / "spans.jsonl")],
            env, deadline,
        )
    finally:
        shutil.rmtree(run_dir / "inputs", ignore_errors=True)

    setup = json.loads((run_dir / "setup.json").read_text())
    measure = json.loads((run_dir / "measure.json").read_text())
    ops = measure["ops"]
    problems = setup["problems"] + measure["prelude_problems"] + [
        f"op {o['index']}: {msg}" for o in ops + measure.get("replay", []) for msg in o["problems"]
    ]
    failed = sum(not o["ok"] for o in ops)
    times = [o["seconds"] for o in ops]

    lines = [
        f"perfbench workload={args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}",
        "env " + " ".join(f"{k}={v}" for k, v in setup["env"].items()),
    ]
    if setup["info"]:
        lines.append("inputs " + " ".join(f"{k}={v}" for k, v in setup["info"].items()))
    if args.trace:
        metrics = {name: {"value": v, "unit": u} for name, (v, u) in measure["layers"].items()}
        for name, (v, u) in measure["layers"].items():
            lines.append(f"{name:32s} {_fmt(v):>14s} {u:8s} (traced ops: {len(ops)})")
    else:
        q = percentile_support(len(times))
        tail = (
            f"p{q} {_fmt(statistics.quantiles(times, n=100)[q - 1])} s"
            if q
            else "no percentile above p50 has ten samples beyond it"
        )
        metrics = {
            "setup_s": {"value": statistics.median(setup["setup_s"]), "unit": "s"},
            "op_p50_s": {"value": statistics.median(times), "unit": "s"},
            "peak_rss_mb": {"value": measure["peak_rss_mb"], "unit": "MB"},
        }
        lines += [
            f"{'setup_s':14s} {_fmt(metrics['setup_s']['value']):>12s} s   (median of {len(setup['setup_s'])} set-ups)",
            f"{'op_p50_s':14s} {_fmt(metrics['op_p50_s']['value']):>12s} s   (n={len(times)} ops; {tail})",
            f"{'peak_rss_mb':14s} {_fmt(metrics['peak_rss_mb']['value']):>12s} MB  "
            f"({'largest CLI child' if args.workload == 'cli_run' else 'timed process'})",
            f"{'ok_ratio':14s} {_fmt((len(ops) - failed) / len(ops)):>12s}     ({len(ops) - failed} of {len(ops)} ops ok)",
        ]
    for o in ops:
        digests = " ".join(f"{k}={v[:12]}" for k, v in o["digests"].items())
        inputs = " ".join(f"{k}={v}" for k, v in o["spec"].items())
        lines.append(f"op {o['index']} {inputs} {o['seconds']:.3f}s {o['outcome']} {digests}".rstrip())
    lines += [f"CHECK FAILED {msg}" for msg in problems]
    spec = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
    declared = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    measured = {name: m["unit"] for name, m in metrics.items()}
    if declared != measured:
        raise SystemExit(f"perfbench: metrics {measured} do not match BENCHMARK.json {declared}")
    report = {
        "correct": not problems,
        "attempted": len(ops),
        "failed": failed,
        "metrics": {name: metrics[name] for name in declared},
    }
    results = work / "results"
    results.mkdir(exist_ok=True)
    (results / f"{tag}.json").write_text(
        json.dumps({"setup": setup, "measure": measure, "report": report}, indent=1)
    )
    print("\n".join(lines))
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
