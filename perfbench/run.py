"""ccrsweep benchmark: run one workload, check its outputs, print its metrics.

    python3 perfbench/run.py --workload sweep_2q --seed 1 --seconds 35 --trace 0

Run from the root of a checkout.  The seed generates the workload's inputs
(outside any timed region); a fresh worker process (perfbench/worker.py)
imports ccrsweep from ``src/`` and repeats timed passes for ``--seconds``.
A timer samples a fixed speed probe during each pass, and the time metrics
are given at the reference host speed: measured seconds x SPEED_REF_S /
mean probe seconds.  The raw times are printed beside them.
With ``--trace 0`` the last line of output is a JSON object with the
end-to-end metrics named in BENCHMARK.json; with ``--trace 1`` the worker
also traces one extra pass and the line carries the per-layer metrics.
Every output is checked by perfbench/oracle.py; ``failed`` counts the
operations (rows, report calls, verify checks) whose output was wrong.

Everything the run writes goes to ``.bench_out/`` in the checkout: job and
result files, program outputs, bytecode, span dumps and a per-run record
``result-<workload>-seed<n>-trace<t>.json`` that includes the seed and the
machine facts.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import random
import statistics
import subprocess
import sys
import time
from pathlib import Path

sys.dont_write_bytecode = True

import oracle  # noqa: E402  (sibling module; imported after disabling bytecode)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".bench_out"

#: A run, including set-up timing and output checks, ends before this.
RUN_LIMIT_S = 170.0
#: Fresh-process imports timed per run for setup_s, half before and half
#: after the timed passes so that they sample the host's speed at two times
#: (after one untimed import that fills the bytecode cache).
SETUP_RUNS = 10
#: Seconds the worker's speed probe takes on the reference host (an Intel
#: Xeon at 2.1 GHz, 2 vCPUs, numpy on OpenBLAS) when it is quiet.  Time
#: metrics are scaled to this speed; the constant only sets their scale.
SPEED_REF_S = 0.0012
#: Single-thread BLAS/OpenMP so timings do not depend on idle cores.
PINNED_THREADS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

TWO_QUBIT = ["adc", "cadc", "pdc", "bfc"]
ONE_QUBIT = ["pfc", "bpfc", "dc"]
#: Default verify grid: five x values per kind (bfc pinned to one) x 101 p.
VERIFY_POINTS = (6 * 5 + 1) * 101
#: Calls per kind for report_point.  Latencies form two modes, about 0.4 ms
#: for one-qubit kinds and 2.2 ms for two-qubit kinds; with equal counts the
#: median falls on the gap between them and swings with every seed, so
#: two-qubit kinds get twice the calls and the median lies inside a mode.
REPORT_CALLS = {"adc": 300, "cadc": 300, "pdc": 300, "bfc": 300,
                "pfc": 150, "bpfc": 150, "dc": 150}


def _sweep_rows(channels: list[str], n_x: int, p_count: int) -> int:
    return sum(1 if ch == "bfc" else n_x for ch in channels) * p_count


def generate(workload: str, seed: int) -> dict:
    """The workload's inputs; the same (workload, seed) gives the same inputs."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "sweep_2q":
        xs = sorted(rng.uniform(0.05, 0.95) for _ in range(5))
        return {"channels": TWO_QUBIT, "x": xs, "p_count": 101, "format": "csv",
                "points": _sweep_rows(TWO_QUBIT, len(xs), 101)}
    if workload == "sweep_1q_xscan":
        # 1/sqrt(2) is the one x where the bpfc/dc three-halves relation holds,
        # so the oracle checks that identity on every seed.
        xs = sorted([rng.random() for _ in range(100)] + [oracle.BALANCED_X])
        return {"channels": ONE_QUBIT, "x": xs, "p_count": 11, "format": "json",
                "points": _sweep_rows(ONE_QUBIT, len(xs), 11)}
    if workload == "verify":
        return {"points": VERIFY_POINTS}
    # Fixed calls per kind, so the cost of a pass does not depend on the seed.
    samples = [
        [kind, rng.random(), rng.random(), 1.0 if kind == "cadc" else 0.0]
        for kind, count in REPORT_CALLS.items()
        for _ in range(count)
    ]
    rng.shuffle(samples)
    return {"samples": samples, "points": len(samples)}


WORKLOADS = ("sweep_2q", "sweep_1q_xscan", "verify", "report_point")


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    # Bytecode of every module, numpy's too, is cached under .bench_out, so
    # set-up time does not depend on the caller's bytecode settings.
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONPYCACHEPREFIX"] = str(OUT / "pycache")
    for name in PINNED_THREADS:
        env[name] = "1"
    return env


class WorkerError(Exception):
    """A worker process exited with an error; the message is its stderr."""


def run_worker(job: dict, tag: str, deadline: float) -> str:
    path = OUT / f"job-{tag}-{job['mode']}.json"
    path.write_text(json.dumps(job), encoding="utf-8")
    timeout = max(1.0, deadline - time.monotonic())
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), str(path)],
        env=child_env(), cwd=ROOT, capture_output=True, text=True, timeout=timeout,
    )
    if proc.returncode != 0:
        raise WorkerError(proc.stderr)
    return proc.stdout


def time_setup(job: dict, tag: str, deadline: float, count: int) -> list[list[float]]:
    """(setup seconds, probe seconds) of ``count`` fresh processes."""
    return [json.loads(run_worker({**job, "mode": "setup"}, tag, deadline))
            for _ in range(count)]


#: Units of the metrics that are printed but are not in BENCHMARK.json.
UNIT_SUFFIXES = (("_ms", "ms"), ("_mb", "MB"), ("_s", "s"), (".calls", "count"),
                 (".spans", "count"), ("_speed", "ratio"))


def unit_of(name: str, spec: dict) -> str:
    for metric in spec["end_to_end"] + spec["per_layer"]:
        if metric["name"] == name:
            return metric["unit"]
    return next(unit for suffix, unit in UNIT_SUFFIXES if name.endswith(suffix))


def nearest_rank(values: list[float], q: float) -> float:
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def run_key(workload: str, inputs: dict) -> str:
    """Identifies the program, the worker and the inputs of a run."""
    h = hashlib.sha256(workload.encode())
    for path in sorted((ROOT / "src").rglob("*.py")) + [HERE / "worker.py"]:
        h.update(path.read_bytes())
    h.update(json.dumps(inputs, sort_keys=True).encode())
    return h.hexdigest()


def check_outputs(workload: str, seed: int, inputs: dict, res: dict,
                  output: Path) -> tuple[int, int, list[str]]:
    """(attempted, failed, messages) over every pass of the run."""
    data = output.read_bytes()
    n_untraced = len(res["walls"])
    if workload == "verify":
        ops, failures = oracle.check_verify(data, res["rcs"][n_untraced - 1])
    elif workload == "report_point":
        ops, failures = oracle.check_reports(data, inputs)
    else:
        ops, failures = oracle.check_sweep(data, inputs)
    reference = res["hashes"][n_untraced - 1]
    bad_ops = min(ops, len(failures))
    failed = 0
    for i, digest in enumerate(res["hashes"]):
        if digest == reference:
            failed += bad_ops
        else:
            failed += ops
            failures.append(f"pass {i}: output differs from the checked pass")
    attempted = ops * len(res["hashes"])

    # Same program, worker and inputs must give the same bytes in every run.
    store = OUT / "hashes.json"
    known = json.loads(store.read_text(encoding="utf-8")) if store.exists() else {}
    key = f"{workload}:{seed}:{run_key(workload, inputs)}"
    if known.setdefault(key, reference) != reference:
        failed = attempted
        failures.append("output bytes differ from an earlier run of the same inputs")
    store.write_text(json.dumps(known, indent=1, sort_keys=True), encoding="utf-8")
    return attempted, failed, failures


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "ccrsweep" / "__init__.py").is_file():
        print(f"perfbench: no ccrsweep sources at {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    deadline = time.monotonic() + RUN_LIMIT_S
    OUT.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    inputs = generate(args.workload, args.seed)
    job = {
        "workload": args.workload, "inputs": inputs, "seconds": args.seconds,
        "trace": bool(args.trace), "output": str(OUT / f"output-{tag}"),
        "result": str(OUT / f"worker-{tag}.json"), "spans": str(OUT / f"spans-{tag}.tsv"),
    }

    try:
        time_setup(job, tag, deadline, 1)
        setup = time_setup(job, tag, deadline, SETUP_RUNS // 2)
        run_worker({**job, "mode": "run"}, tag, deadline)
        setup += time_setup(job, tag, deadline, SETUP_RUNS - SETUP_RUNS // 2)
    except subprocess.TimeoutExpired:
        print(f"perfbench: {args.workload} did not finish in {RUN_LIMIT_S:g} s", file=sys.stderr)
        return 1
    except WorkerError as exc:
        print(exc, file=sys.stderr, end="")
        return 1
    res = json.loads(Path(job["result"]).read_text(encoding="utf-8"))
    attempted, failed, failures = check_outputs(
        args.workload, args.seed, inputs, res, Path(job["output"]))

    probes = res["probes"]
    scales = [SPEED_REF_S / probe for probe in probes]
    wall = statistics.median(w * k for w, k in zip(res["walls"], scales))
    latencies_ms = [t * k * 1e3 for lat, k in zip(res["latencies"], scales) for t in lat]
    values = {
        "setup_s": statistics.median(t * SPEED_REF_S / probe for t, probe in setup),
        "wall_s": wall,
        "points_per_s": inputs["points"] / wall,
        "latency_p50_ms": statistics.median(latencies_ms),
        "latency_p95_ms": nearest_rank(latencies_ms, 0.95),
        "peak_rss_mb": res["peak_rss_mb"],
        "setup_raw_s": statistics.median(t for t, _ in setup),
        "wall_raw_s": statistics.median(res["walls"]),
        "host_speed": SPEED_REF_S / statistics.median(probes),
    }
    if args.trace:
        values.update(res["trace"])
        traced = res["traced_wall"] * SPEED_REF_S / res["traced_probe"]
        values["trace.overhead_s"] = traced - wall
    selected = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in selected}

    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace} "
          f"passes={len(res['walls'])} points/pass={inputs['points']} "
          f"latency samples={len(latencies_ms)}")
    for name in sorted(values):
        print(f"  {name:<42} {values[name]!r} {unit_of(name, spec)}")
    print(f"  {'error_rate':<42} {failed / attempted!r} ({failed} of {attempted} failed)")
    for message in failures[:10]:
        print(f"  FAIL {message}")
    print(f"  output sha256 {res['hashes'][-1]}")
    print(f"  machine {json.dumps(res['machine'], sort_keys=True)}")

    record = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds, "passes": len(res["walls"]), "points": inputs["points"],
        "setup_and_probe_s": setup, "pass_walls_s": res["walls"], "probes_s": probes,
        "values": values,
        "attempted": attempted, "failed": failed, "failures": failures[:100],
        "output_sha256": res["hashes"][-1], "machine": res["machine"],
    }
    (OUT / f"result-{tag}.json").write_text(json.dumps(record, indent=1), encoding="utf-8")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
