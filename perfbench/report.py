#!/usr/bin/env python3
"""Every metric of every workload, by name, with unit and sample count.

    python3 perfbench/report.py [--seed N] [--workloads build_long,synth,cli_run]

Runs ``run.py`` once untraced and once traced per workload at the
``run_seconds`` of ``BENCHMARK.json`` and prints one table: the end-to-end
metrics (plus ``ok_ratio``), then the per-layer metrics of the traced run.
Takes about five minutes on 2 CPUs.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent


def run(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True,
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout + proc.stderr)
        raise SystemExit(f"run.py failed on {workload} (trace {trace})")
    report = json.loads(proc.stdout.strip().splitlines()[-1])
    detail = json.loads((BENCH_DIR / "_work" / "results" / f"{workload}-s{seed}-t{trace}.json").read_text())
    return report, detail


def main(argv=None) -> int:
    spec = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    args = p.parse_args(argv)
    workloads = args.workloads.split(",")

    plain, traced = {}, {}
    for w in workloads:
        plain[w] = run(w, args.seed, spec["run_seconds"], 0)
        traced[w] = run(w, args.seed, spec["run_seconds"], 1)

    rows = []
    for w in workloads:
        report, detail = plain[w]
        n_ops = report["attempted"]
        counts = {
            "setup_s": f"{len(detail['setup']['setup_s'])} set-ups",
            "op_p50_s": f"{n_ops} ops",
            "peak_rss_mb": "1 process" if w != "cli_run" else f"{n_ops} CLI processes",
        }
        for name, m in report["metrics"].items():
            rows.append((w, name, m["value"], m["unit"], counts[name]))
        ok = n_ops - report["failed"]
        rows.append((w, "ok_ratio", ok / n_ops, "ratio", f"{ok} of {n_ops} ops"))
        rows.append((w, "correct", report["correct"], "", "all output checks"))
    for w in workloads:
        report, _ = traced[w]
        for name, m in report["metrics"].items():
            rows.append((w, name, m["value"], m["unit"], f"{report['attempted']} traced ops"))

    env = plain[workloads[0]][1]["setup"]["env"]
    print("env " + " ".join(f"{k}={v}" for k, v in env.items()))
    print(f"seed {args.seed}, run_seconds {spec['run_seconds']}")
    print(f"| {'workload':10s} | {'metric':28s} | {'value':>12s} | {'unit':8s} | samples |")
    print(f"|{'-' * 12}|{'-' * 30}|{'-' * 14}|{'-' * 10}|---------|")
    for w, name, value, unit, samples in rows:
        shown = f"{value:.4g}" if isinstance(value, float) else str(value)
        print(f"| {w:10s} | {name:28s} | {shown:>12s} | {unit:8s} | {samples} |")
    return 0


if __name__ == "__main__":
    sys.exit(main())
