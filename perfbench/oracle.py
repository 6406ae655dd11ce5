"""Output checks for the benchmark workloads.

Each check takes the bytes a workload produced and the inputs it was given,
and returns ``(attempted, failures)``: the number of operations (table rows,
report calls or verify checks) and a list of messages, one per failed
operation.  The checks know the program only through its documented output:
row order, column names, the identity tolerances and closed forms.
"""

from __future__ import annotations

import csv
import io
import json
import math
import re

BALANCED_X = 1.0 / math.sqrt(2.0)
RESIDUAL_TOL = 1e-10
CLOSED_FORM_TOL = 1e-12
GRID_TOL = 1e-12

#: Kinds whose three-halves relation holds only at x = 1/sqrt(2).
BALANCED_ONLY = frozenset({"bpfc", "dc"})

_VERIFY_TOTAL = re.compile(r"^(\d+)/(\d+) checks within tolerance")


def p_grid(count: int) -> list[float]:
    return [i / (count - 1) for i in range(count)]


def expected_rows(channels: list[str], xs: list[float], p_count: int):
    """(channel, x, p) of every sweep row, in the documented order."""
    for ch in channels:
        for x in [BALANCED_X] if ch == "bfc" else sorted(xs):
            for p in p_grid(p_count):
                yield ch, x, p


def _number(value) -> float | None:
    if value is None or value == "":
        return None
    return float(value)


def _in_domain(kind: str, x: float) -> bool:
    return kind not in BALANCED_ONLY or abs(x - BALANCED_X) <= GRID_TOL


def _within(value: float | None, tol: float) -> bool:
    return value is not None and math.isfinite(value) and abs(value) <= tol


def _adc_closed_forms(x: float, p: float, measure) -> str | None:
    """rho_A = diag(x^2 + y^2 p, y^2 (1 - p)) for amplitude damping."""
    y2 = 1.0 - x * x
    a, b = x * x + y2 * p, y2 * (1.0 - p)
    expected = {"P_hs_A": a * a + b * b - 0.5, "C_hs_A": 0.0, "S_l_A": 1.0 - a * a - b * b}
    for name, want in expected.items():
        got = measure(name)
        if got is None or not abs(got - want) <= CLOSED_FORM_TOL:
            return f"{name} = {got!r}, closed form {want!r}"
    return None


def _check_row(row: dict, kind: str, x: float, p: float) -> str | None:
    if row.get("channel") != kind:
        return f"channel {row.get('channel')!r}, expected {kind!r}"
    got_x, got_p = _number(row.get("x")), _number(row.get("p"))
    if got_x is None or got_p is None or abs(got_x - x) > GRID_TOL or abs(got_p - p) > GRID_TOL:
        return f"(x, p) = ({got_x!r}, {got_p!r}), expected ({x!r}, {p!r})"
    ccr = _number(row.get("residual_ccr"))
    if not _within(ccr, RESIDUAL_TOL):
        return f"residual_ccr {ccr!r}"
    if _in_domain(kind, x):
        ident = _number(row.get("residual_channel_identity"))
        if not _within(ident, RESIDUAL_TOL):
            return f"residual_channel_identity {ident!r}"
    if kind == "adc":
        return _adc_closed_forms(x, p, lambda name: _number(row.get(name)))
    return None


def check_sweep(data: bytes, inputs: dict) -> tuple[int, list[str]]:
    """Rows complete and ordered channel / x asc / p asc, identities within
    tolerance, amplitude-damping columns equal to their closed forms."""
    text = data.decode("utf-8")
    try:
        if inputs["format"] == "csv":
            rows = list(csv.DictReader(io.StringIO(text)))
        else:
            rows = json.loads(text)
    except (ValueError, csv.Error) as exc:
        return inputs["points"], [f"unreadable {inputs['format']} output: {exc}"] * inputs["points"]
    expected = list(expected_rows(inputs["channels"], inputs["x"], inputs["p_count"]))
    failures = [f"{len(rows)} rows, expected {len(expected)}"] * abs(len(rows) - len(expected))
    for i, (row, (kind, x, p)) in enumerate(zip(rows, expected)):
        problem = _check_row(row, kind, x, p)
        if problem:
            failures.append(f"row {i} ({kind} x={x!r} p={p!r}): {problem}")
    return max(len(rows), len(expected)), failures


def check_reports(data: bytes, inputs: dict) -> tuple[int, list[str]]:
    """One report per requested (kind, x, p, mu), in order, every identity
    in its domain within tolerance, amplitude-damping closed forms."""
    samples = inputs["samples"]
    try:
        rows = json.loads(data.decode("utf-8"))
    except ValueError as exc:
        return len(samples), [f"unreadable report dump: {exc}"] * len(samples)
    failures = [f"{len(rows)} reports, expected {len(samples)}"] * abs(len(rows) - len(samples))
    for i, (row, (kind, x, p, mu)) in enumerate(zip(rows, samples)):
        want_x = BALANCED_X if kind == "bfc" else x
        problem = None
        if (row["kind"], row["p"], row["mu"]) != (kind, p, mu) or abs(row["x"] - want_x) > GRID_TOL:
            problem = f"report for {row['kind']} x={row['x']!r} p={row['p']!r} mu={row['mu']!r}"
        elif "ccr_universal" not in row["residuals"]:
            problem = "no ccr_universal residual"
        else:
            for name, value in row["residuals"].items():
                if name == "three_halves" and not _in_domain(kind, want_x):
                    continue
                if not _within(value, RESIDUAL_TOL):
                    problem = f"{name} residual {value!r}"
                    break
        if problem is None and kind == "adc":
            problem = _adc_closed_forms(want_x, p, row["measures"].get)
        if problem:
            failures.append(f"call {i} ({kind} x={x!r} p={p!r}): {problem}")
    return max(len(rows), len(samples)), failures


def check_verify(data: bytes, rc: int) -> tuple[int, list[str]]:
    """Exit code 0 and a final ``N/N checks`` line."""
    lines = data.decode("utf-8").strip().splitlines()
    match = _VERIFY_TOTAL.match(lines[-1]) if lines else None
    if match is None:
        return 1, ["no 'N/M checks' summary line"]
    passed, total = int(match.group(1)), int(match.group(2))
    failures = [line for line in lines[:-1] if not line.startswith("PASS")]
    failures += ["summary line reports failed checks"] * max(0, total - passed - len(failures))
    if rc != 0 and not failures:
        failures.append(f"exit code {rc}")
    return total, failures
