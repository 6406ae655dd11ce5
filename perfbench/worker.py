"""Workload process: runs one benchmark workload against ccrsweep.

run.py starts this file in a fresh interpreter with the path of a JSON job
file it wrote:

    python3 perfbench/worker.py JOB.json

Mode "setup" times a fresh ``import ccrsweep`` plus the workload's config
build, then the speed probe, and prints both in seconds.  Mode "run" warms
up, repeats timed passes of the workload until the run length is spent while
a timer signal samples the speed probe, optionally traces one more pass, and
writes a result JSON to the path named in the job.  Outputs are only timed
here; run.py checks them.
"""

from __future__ import annotations

import bisect
import contextlib
import functools
import hashlib
import io
import json
import os
import platform
import resource
import signal
import statistics
import sys
from pathlib import Path
from time import perf_counter

#: A run makes at least this many timed passes, so a median exists.
MIN_PASSES = 3
#: Repetitions of the probe kernel in one speed probe (about 1 ms).
PROBE_REPS = 10
#: Wall seconds between speed probes during a timed pass.
PROBE_INTERVAL_S = 0.05
#: Speed probes timed in a row after a set-up import.
SETUP_PROBES = 60


@functools.cache
def _probe_state():
    # numpy is imported here, not at the top, so that set-up timing pays for it.
    import numpy as np

    psi = np.linspace(0.1, 1.0, 16).astype(complex)
    return np, np.outer(psi, psi.conj()) / np.vdot(psi, psi).real


def speed_probe() -> float:
    """Seconds taken by a fixed block of work that uses no ccrsweep code.

    The block mixes what a ccrsweep pass spends its time on: small numpy
    reshapes, traces and eigen-solves of 2- to 16-dimensional matrices, and
    plain Python loops.  The host's speed drifts by a third within seconds,
    and a pass slows or speeds up with the probes timed during it, so run.py
    divides pass times by the mean probe time.  The block must stay the same
    from one version of the program to the next.
    """
    np, state = _probe_state()
    t0 = perf_counter()
    for _ in range(PROBE_REPS):
        tensor = state.reshape((2, 2, 2, 2) * 2)
        for keep in ((0,), (0, 1), (2, 3), (0, 2)):
            reduced, remaining = tensor, [2, 2, 2, 2]
            for axis in sorted(set(range(4)) - set(keep), reverse=True):
                reduced = np.trace(reduced, axis1=axis, axis2=axis + len(remaining))
                remaining.pop(axis)
            d = 2 ** len(remaining)
            mat = reduced.reshape(d, d)
            np.linalg.eigvalsh(mat)
            np.abs(mat - mat.conj().T).max()
        total = 0
        for j in range(300):
            total += j * j
    return perf_counter() - t0


class SpeedSampler:
    """Times ``speed_probe`` every PROBE_INTERVAL_S while a pass runs.

    The probes run from a SIGALRM handler, so they interleave with the pass
    at bytecode boundaries; one more probe runs when the pass ends, so every
    pass has a sample.  ``net`` takes the probes' time out of a timed span.
    """

    def __init__(self):
        self.intervals: list[tuple[float, float]] = []

    def _probe(self, *_):
        t0 = perf_counter()
        speed_probe()
        self.intervals.append((t0, perf_counter()))

    def __enter__(self):
        self.intervals = []
        signal.signal(signal.SIGALRM, self._probe)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self._probe()

    def mean_probe(self) -> float:
        return statistics.fmean(b - a for a, b in self.intervals)

    def net(self, spans: list[tuple[float, float]]) -> list[float]:
        """Each span's duration less the probe time that fell inside it."""
        starts = [a for a, _ in spans]
        out = [b - a for a, b in spans]
        for p0, p1 in self.intervals:
            i = bisect.bisect_right(starts, p1) - 1
            while i >= 0 and spans[i][1] > p0:
                a, b = spans[i]
                out[i] -= max(0.0, min(b, p1) - max(a, p0))
                i -= 1
        return out


def build_config(pkg, job: dict):
    """The configuration a caller builds before the timed work starts."""
    inputs = job["inputs"]
    kind = pkg.ChannelKind
    if job["workload"] == "report_point":
        return [
            (pkg.ChannelSpec(kind(k), p, mu), x) for k, x, p, mu in inputs["samples"]
        ]
    if job["workload"] == "verify":
        return pkg.SweepConfig()
    return pkg.SweepConfig(
        channels=tuple(kind(c) for c in inputs["channels"]),
        x_values=tuple(inputs["x"]),
        p_count=inputs["p_count"],
        fmt=inputs["format"],
        output=job["output"],
    )


class Sweep:
    """``ccrsweep sweep`` through ``cli.main``; one pass writes one table."""

    def __init__(self, pkg, job: dict):
        inputs = job["inputs"]
        self.pkg = pkg
        self.path = job["output"]
        channels = ",".join(inputs["channels"])
        flags = ["--channels", channels, "--format", inputs["format"], "--out", self.path]
        xs = inputs["x"]
        self.argv = ["sweep", *flags, "--x", ",".join(map(repr, xs)),
                     "--p-count", str(inputs["p_count"])]
        self.warm_argv = ["sweep", *flags, "--x", repr(xs[0]), "--p-count", "2"]
        self.points = inputs["points"]

    def warm_up(self) -> None:
        self.pkg.cli.main(self.warm_argv)

    def run_pass(self):
        main = self.pkg.cli.main
        t0 = perf_counter()
        rc = main(self.argv)
        t1 = perf_counter()
        data = Path(self.path).read_bytes() if rc == 0 else b""
        return [(t0, t1)], rc, data


class Verify:
    """``ccrsweep verify`` on the default grid; one pass is one verify run."""

    def __init__(self, pkg, job: dict):
        self.pkg = pkg
        self.points = job["inputs"]["points"]

    def _run(self, argv: list[str]):
        buf = io.StringIO()
        main = self.pkg.cli.main
        t0 = perf_counter()
        with contextlib.redirect_stdout(buf):
            rc = main(argv)
        return [(t0, perf_counter())], rc, buf.getvalue().encode()

    def warm_up(self) -> None:
        self._run(["verify", "--channels", "adc,pfc", "--p-count", "3"])

    def run_pass(self):
        return self._run(["verify"])


class ReportPoint:
    """Single ``ccr_report`` calls; one pass is the whole seeded sample list."""

    def __init__(self, pkg, job: dict):
        self.pkg = pkg
        self.calls = build_config(pkg, job)
        self.points = len(self.calls)

    def warm_up(self) -> None:
        one_per_kind = {spec.kind: (spec, x) for spec, x in self.calls}
        for spec, x in one_per_kind.values():
            self.pkg.ccr_report(spec, x)

    def run_pass(self):
        ccr_report = self.pkg.ccr_report
        clock = perf_counter
        spans = []
        reports = []
        for spec, x in self.calls:
            t0 = clock()
            report = ccr_report(spec, x)
            spans.append((t0, clock()))
            reports.append(report)
        rows = [
            {
                "kind": r.channel.kind.value,
                "mu": r.channel.mu,
                "x": r.x,
                "p": r.p,
                "measures": r.measures,
                "residuals": {ident.value: v for ident, v in r.residuals.items()},
            }
            for r in reports
        ]
        return spans, 0, json.dumps(rows, sort_keys=True).encode()


WORKLOADS = {
    "sweep_2q": Sweep,
    "sweep_1q_xscan": Sweep,
    "verify": Verify,
    "report_point": ReportPoint,
}


def machine_facts(np) -> dict:
    """Cores, Python, numpy and its BLAS, and cache sizes from sysfs."""
    facts = {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": "unknown",
    }
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        facts["blas"] = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        pass
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            ctype = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        suffix = {"Data": "d", "Instruction": "i"}.get(ctype, "")
        caches[f"L{level}{suffix}"] = size
    facts["caches"] = caches
    return facts


def run(job: dict) -> dict:
    import numpy as np

    import ccrsweep

    workload = WORKLOADS[job["workload"]](ccrsweep, job)
    workload.warm_up()
    speed_probe()

    # Per pass: wall and operation latencies without the probes' time, and
    # the mean probe time during the pass.
    walls, latencies, probes, rcs, hashes = [], [], [], [], []
    sampler = SpeedSampler()
    start = perf_counter()
    while True:
        with sampler:
            spans, rc, data = workload.run_pass()
        walls.append(sampler.net([(spans[0][0], spans[-1][1])])[0])
        latencies.append(sampler.net(spans))
        probes.append(sampler.mean_probe())
        rcs.append(rc)
        hashes.append(hashlib.sha256(data).hexdigest())
        elapsed = perf_counter() - start
        if len(walls) >= MIN_PASSES and elapsed + statistics.median(walls) > job["seconds"]:
            break
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    Path(job["output"]).write_bytes(data)

    result = {
        "walls": walls,
        "latencies": latencies,
        "probes": probes,
        "rcs": rcs,
        "hashes": hashes,
        "peak_rss_mb": rss_mb,
        "machine": machine_facts(np),
        "trace": None,
    }
    if job["trace"]:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install(ccrsweep)
        try:
            spans, rc, traced = workload.run_pass()
        finally:
            tracer.uninstall()
        wall = spans[-1][1] - spans[0][0]
        tracer.write(job["spans"])
        summary = tracer.summary(wall, workload.points)
        result["trace"] = summary
        # The speed probe calls the traced eigvalsh, so it runs after the pass.
        result["traced_wall"] = wall
        result["traced_probe"] = statistics.fmean(speed_probe() for _ in range(SETUP_PROBES))
        result["rcs"].append(rc)
        result["hashes"].append(hashlib.sha256(traced).hexdigest())
    return result


def main(argv: list[str]) -> int:
    with open(argv[1], encoding="utf-8") as fh:
        job = json.load(fh)
    if job["mode"] == "setup":
        t0 = perf_counter()
        import ccrsweep

        build_config(ccrsweep, job)
        setup = perf_counter() - t0
        speed_probe()
        probe = statistics.fmean(speed_probe() for _ in range(SETUP_PROBES))
        print(json.dumps([setup, probe]))
        return 0
    result = run(job)
    with open(job["result"], "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
