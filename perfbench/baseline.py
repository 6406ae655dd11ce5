"""Run every workload over several seeds and summarise the benchmark.

    python3 perfbench/baseline.py --runs 10 --trace

Runs perfbench/run.py once per (workload, seed 1..runs), one process at a
time, with the run length from BENCHMARK.json.  For each end-to-end metric it prints
the median over the seeds, the quartiles (``statistics.quantiles(n=4)``) and
their distance as a share of the median, next to the metric's bound; a
metric is steady when that spread is below a third of its bound (set-up time
is exempt).  With ``--trace`` it adds one traced run per workload and prints
its per-layer metrics.  The summary JSON holds every value, the seeds, the
machine facts and the map from each per-layer metric to the end-to-end
metric it should move; it is written to .bench_out/baseline.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".bench_out" / "baseline.json"

#: Which end-to-end metric, on which workload, each per-layer metric should move.
LAYER_MAP = {
    "linalg.self_s": "wall_s, mostly on sweep_2q and verify",
    "linalg.partial_trace.calls": "wall_s, mostly on sweep_2q and verify",
    "linalg.partial_trace.self_s": "wall_s, mostly on sweep_2q and verify",
    "linalg.partial_trace.per_point": "wall_s, mostly on sweep_2q and verify",
    "linalg.partial_trace.unique_ratio": "wall_s, mostly on sweep_2q and verify",
    "linalg.partial_trace.bytes_in": "wall_s, mostly on sweep_2q and verify",
    "linalg.density_operator.calls": "wall_s on every workload",
    "linalg.density_operator.self_s": "wall_s on every workload",
    "linalg.eigvalsh.calls": "wall_s on every workload",
    "linalg.eigvalsh.per_point": "wall_s on every workload",
    "linalg.eigvalsh.self_s": "wall_s on every workload",
    "measures.self_s": "wall_s and points_per_s on sweep_2q",
    "measures.calls": "wall_s and points_per_s on sweep_2q",
    "measures.correlated_coherence_hs.self_s": "wall_s and points_per_s on sweep_2q",
    "measures.re_correlated_coherence.calls": "wall_s and points_per_s on sweep_2q",
    "measures.re_correlated_coherence.self_s": "wall_s and points_per_s on sweep_2q",
    "measures.is_ppt.calls": "wall_s and points_per_s on sweep_2q",
    "channels.self_s": "wall_s on verify",
    "channels.dilate.calls": "wall_s on verify",
    "channels.dilate.unique_ratio": "wall_s on verify",
    "channels.kraus.calls": "wall_s on verify",
    "reports.self_s": "wall_s and latency_p95_ms on report_point",
    "reports.ccr_report.calls": "wall_s and latency_p95_ms on report_point",
    "cli.render.calls": "wall_s on sweep_1q_xscan (run by hand) and sweep_2q",
    "cli.render.bytes": "wall_s on sweep_1q_xscan (run by hand) and sweep_2q",
    "cli.verify.calls": "wall_s on verify",
    "trace.overhead_s": "none: describes the traced run itself",
    "trace.coverage": "none: describes the traced run itself",
}


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    record = ROOT / ".bench_out" / f"result-{workload}-seed{seed}-trace{trace}.json"
    result["record"] = json.loads(record.read_text(encoding="utf-8"))
    return result


def spread(values: list[float]) -> dict:
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median,) * 3
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median,
            "values": values}


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = [w["name"] for w in bench["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--runs", type=int, default=10, help="seeds per workload")
    parser.add_argument("--workloads", default=",".join(names))
    parser.add_argument("--trace", action="store_true", help="add one traced run per workload")
    args = parser.parse_args()

    seeds = list(range(1, args.runs + 1))
    summary = {"run_seconds": bench["run_seconds"], "seeds": seeds, "workloads": {},
               "layer_map": LAYER_MAP}
    steady = True
    for workload in args.workloads.split(","):
        runs = [run_once(workload, s, bench["run_seconds"], 0) for s in seeds]
        entry = {
            "why": next((w["why"] for w in bench["workloads"] if w["name"] == workload), None),
            "machine": runs[0]["record"]["machine"],
            "attempted": sum(r["attempted"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
            "correct": all(r["correct"] for r in runs),
            "end_to_end": {},
        }
        print(f"{workload}: {len(runs)} runs, seeds {seeds[0]}..{seeds[-1]}, "
              f"failed {entry['failed']} of {entry['attempted']}")
        for metric in bench["end_to_end"]:
            name = metric["name"]
            stats = spread([r["metrics"][name]["value"] for r in runs])
            stats["unit"], stats["bound"] = metric["unit"], metric["bound"]
            ok = name == "setup_s" or stats["spread"] < metric["bound"] / 3
            steady &= ok
            entry["end_to_end"][name] = stats
            print(f"  {name:<16} median {stats['median']:<12.6g} {metric['unit']:<5} "
                  f"quartiles [{stats['q1']:.6g}, {stats['q3']:.6g}]  spread "
                  f"{stats['spread']:.4f}  bound {metric['bound']}  {'ok' if ok else 'WIDE'}")
        if args.trace:
            traced = run_once(workload, seeds[0], bench["run_seconds"], 1)
            entry["per_layer_seed"] = seeds[0]
            entry["per_layer"] = {k: v["value"] for k, v in traced["metrics"].items()}
            entry["correct"] &= traced["correct"]
            for name, value in entry["per_layer"].items():
                print(f"  {name:<42} {value!r}")
        summary["workloads"][workload] = entry
    OUT.parent.mkdir(parents=True, exist_ok=True)
    OUT.write_text(json.dumps(summary, indent=1) + "\n", encoding="utf-8")
    print(f"summary written to {OUT}; {'steady' if steady else 'NOT steady'}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
