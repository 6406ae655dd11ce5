"""Command-line driver: sweep (channel, x, p) grids and verify identities.

``ccrsweep sweep`` evaluates a grid of complementarity reports and writes
them as CSV or JSON in a fixed column order with shortest round-trip float
formatting, so identical configurations produce byte-identical files.

``ccrsweep verify`` re-derives every identity and invariant on the grid's
blocks and on every tenth of x, and exits 0 exactly when the worst residual
of each named check stays within tolerance, printing the worst offender.

Options may come from a flat ``key=value`` config file (``--config``);
command-line flags win over file values.  Exit codes: 0 success, 1 tolerance
or I/O failure, 2 configuration error.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass, field
from typing import Callable, Iterator

import numpy as np

from .channels import _TWO_QUBIT_KINDS, ChannelKind, _kraus_stack, _operator_sums, dilate_block
from .linalg import SubsystemLayout, check_density
from .measures import is_ppt, sector_decomposition
from .reports import (
    APPLICABLE_IDENTITIES,
    BALANCED_X,
    IDENTITIES,
    Identity,
    IdentityId,
    _block_columns,
    _reduced,
    _sector_columns,
    _sudden_death_bisection,
    initial_state,
    is_balanced,
)

#: Initial-state grid matching the curve families usually plotted.
DEFAULT_X = (0.1, 0.2, 0.25, 0.5, BALANCED_X)

#: Every tenth of x, which verify covers besides the grid's x values.
TENTHS = tuple(round(0.1 * i, 1) for i in range(11))

#: The largest p grid a run accepts, ten times the dense 1 001-point grid.  A
#: sweep holds its table in memory: at 1 001 p the default grid peaks at 84 MB
#: RSS as CSV and 185 MB as JSON (2-core host, numpy 2.4), about linear in p.
MAX_P_COUNT = 10_001

CSV_COLUMNS = (
    "channel", "mu", "x", "p",
    "P_hs_A", "C_hs_A", "S_l_A",
    "Cc_AB", "Cc_AEA", "Cc_AEB", "Cc_EAEB", "Cc_ABE",
    "C_global", "C_env", "concurrence_AB",
    "ppt_AEA", "ppt_AEB", "ppt_EAEB",
    "mutual_info_AB", "residual_ccr", "residual_channel_identity",
)


@dataclass(frozen=True)
class SweepConfig:
    channels: tuple[ChannelKind, ...] = tuple(ChannelKind)
    x_values: tuple[float, ...] = DEFAULT_X
    p_start: float = 0.0
    p_stop: float = 1.0
    p_count: int = 101
    mu: float = 1.0
    output: str | None = None
    fmt: str = "csv"
    tolerance: float = 1e-10

    def __post_init__(self):
        if not self.channels:
            raise ValueError("channels: must name at least one channel")
        if not self.x_values:
            raise ValueError("x: must name at least one value")
        if not all(0.0 <= x <= 1.0 for x in self.x_values):
            raise ValueError(f"x: values must lie in [0, 1], got {self.x_values}")
        for i, x in enumerate(self.x_values):
            if x in self.x_values[:i]:
                raise ValueError(f"x: duplicate value {x}")
        if not 2 <= self.p_count <= MAX_P_COUNT:
            raise ValueError(f"p_count: must lie in [2, {MAX_P_COUNT}], got {self.p_count}")
        if not 0.0 <= self.p_start < self.p_stop <= 1.0:
            raise ValueError(
                f"p_start/p_stop: need 0 <= start < stop <= 1, got {self.p_start}, {self.p_stop}"
            )
        if not 0.0 <= self.mu <= 1.0:
            raise ValueError(f"mu: must lie in [0, 1], got {self.mu}")
        if ChannelKind.CADC in self.channels and self.mu not in (0.0, 1.0):
            raise ValueError(
                f"mu: CADC reports require mu of 0 or 1 (the mixed map has no "
                f"two-qubit-environment dilation), got {self.mu}"
            )
        if self.fmt not in ("csv", "json"):
            raise ValueError(f"format: must be csv or json, got {self.fmt!r}")
        if not 0.0 < self.tolerance < 1.0:
            raise ValueError(f"tolerance: must lie strictly between 0 and 1, got {self.tolerance}")

    def p_grid(self) -> np.ndarray:
        return np.linspace(self.p_start, self.p_stop, self.p_count)


def _blocks(cfg: SweepConfig, x_values) -> Iterator[tuple[ChannelKind, float, float]]:
    """The (kind, mu, x) of each block over ``x_values`` and the p grid,
    ordered channel / x asc; mu is the config's for CADC and 0 for every
    other kind, and the bit flip channel is evaluated at x = 1/sqrt(2) only."""
    for kind in cfg.channels:
        mu = cfg.mu if kind is ChannelKind.CADC else 0.0
        for x in (BALANCED_X,) if kind is ChannelKind.BFC else sorted(x_values):
            yield kind, mu, x


#: A sweep table: one dict per (channel, x) block, in row order, mapping each
#: of CSV_COLUMNS to the block's cells (str, real or None), p ascending.
Table = list[dict[str, list]]


def sweep_table(cfg: SweepConfig) -> Table:
    """The sweep's rows as block columns, ordered channel / x asc / p asc:
    inapplicable measures and off-domain headline residuals are None."""
    ps = cfg.p_grid()
    n = len(ps)
    table = []
    for kind, mu, x in _blocks(cfg, cfg.x_values):
        x, m, *_ = _block_columns(kind, mu, x, ps)
        headline = IDENTITIES[APPLICABLE_IDENTITIES[kind][0]]
        in_domain = np.broadcast_to(headline.domain(kind, mu, x, ps), n)
        block = {"channel": [kind.value] * n, "mu": [mu] * n, "x": [x] * n, "p": ps.tolist()}
        block.update({name: m[name].tolist() if name in m else [None] * n
                      for name in CSV_COLUMNS[4:-2]})
        block["residual_ccr"] = IDENTITIES[IdentityId.CCR_UNIVERSAL].residual(m).tolist()
        block["residual_channel_identity"] = [
            r if ok else None for r, ok in zip(headline.residual(m).tolist(), in_domain.tolist())]
        table.append(block)
    return table


def render_csv(table: Table) -> str:
    """The table as CSV, each column of a block formatted at once: None as
    an empty cell, a real as the shortest decimal that round-trips.  Each
    distinct nonzero real is formatted once per table; a zero is formatted
    at every cell, because 0.0 == -0.0 would share one memo entry."""
    memo: dict = {}

    def remember(v) -> str:
        text = memo[v] = repr(float(v))
        return text

    lines = [",".join(CSV_COLUMNS)]
    for block in table:
        columns = (["" if v is None else v if isinstance(v, str)
                    else memo.get(v) or (remember(v) if v else repr(float(v)))
                    for v in block[name]] for name in CSV_COLUMNS)
        lines += map(",".join, zip(*columns))
    return "\n".join(lines) + "\n"


def render_json(table: Table) -> str:
    rows = [dict(zip(CSV_COLUMNS, cells)) for block in table
            for cells in zip(*(block[name] for name in CSV_COLUMNS))]
    return json.dumps(rows, indent=2) + "\n"


def emit(table: Table, fmt: str, path: str) -> None:
    """Write the table of :func:`sweep_table`; field names and order are
    identical for both formats, with inapplicable measures and off-domain
    identity residuals left empty (CSV) or null (JSON)."""
    if not table:
        raise ValueError("nothing to emit: no reports were produced")
    text = render_csv(table) if fmt == "csv" else render_json(table)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)


# --------------------------------------------------------------------------
# verify
# --------------------------------------------------------------------------


@dataclass
class _Tracker:
    """Worst residual seen per named check, with where it occurred."""

    worst: dict[str, tuple[float, str]] = field(default_factory=dict)

    def track(self, name: str, values, where: Callable[[int], str]) -> None:
        """Record the largest of ``values`` (the first on ties; NaN ranks above
        every number) if it beats the worst so far, placed by ``where(index)``;
        an empty array records nothing."""
        values = np.asarray(values, dtype=float)
        if values.size == 0:
            return
        i = int(values.argmax())  # the first NaN, if any
        new, old = float(values[i]), self.worst.get(name, (None,))[0]
        if old is None or new > old or math.isnan(new) > math.isnan(old):
            self.worst[name] = (new, where(i))


#: The checks of verify beside IDENTITIES, by name, over a block's measure
#: columns, its "p" column and, for two-qubit kinds, its _state_columns.
CHECKS: dict[str, Identity] = {
    "adc_entropy_dominance": Identity(
        (ChannelKind.ADC,), lambda m: np.maximum(0.0, m["Cc_AB"] - m["S_l_A"])),
    # the x = 1/sqrt(2) columns against the closed forms of the marginal
    # diag((1+p)/2, (1-p)/2)
    "adc_symmetric_columns": Identity((ChannelKind.ADC,), lambda m: np.maximum.reduce([
        abs(m["P_hs_A"] - m["p"] ** 2 / 2), abs(m["Cc_AB"] - (1 - m["p"]) ** 2 / 2),
        abs(m["S_l_A"] - (1 - m["p"] ** 2) / 2)]), lambda kind, mu, x, p: is_balanced(x)),
    **{f"{kind.value}_predictability_invariance": Identity(
        (kind,), lambda m: abs(m["P_hs_A"] - m["P_hs_A_initial"]))
       for kind in (ChannelKind.PDC, ChannelKind.PFC)},
    "dc_terminal_locality": Identity((ChannelKind.DC,), lambda m: np.maximum.reduce([
        abs(m["S_l_A"]), abs(m["C_global"] - m["C_hs_A"]), abs(m["Cc_AEA"])]),
        lambda kind, mu, x, p: p == 1.0),
    "xstate_ppt_consistency": Identity(tuple(_TWO_QUBIT_KINDS), lambda m: m["entangled_but_ppt"]),
    "cross_partition_ppt": Identity(
        (ChannelKind.PDC, ChannelKind.BFC), lambda m: m["cross_ppt_defect"]),
    "sector_total_consistency": Identity(
        tuple(_TWO_QUBIT_KINDS), lambda m: abs(m["sector_total"] - m["C_global"])),
}

#: Every row verify checks, by name: IDENTITIES, then CHECKS.
ROWS: dict[str, Identity] = {ident.value: row for ident, row in IDENTITIES.items()} | CHECKS


def _state_columns(m: dict, pairs: dict, cross_min: np.ndarray, amplitudes: np.ndarray,
                   layout: SubsystemLayout) -> dict:
    """PPT and sector columns of a two-qubit block, from its pair stacks, the
    cross pairs' smallest partial-transpose eigenvalues and dilated states,
    which are decomposed into sectors once, here."""
    entangled_but_ppt = (m["concurrence_AB"] > 1e-10) & is_ppt(pairs["AB"])
    sectors = sector_decomposition(amplitudes, layout)
    return {
        "entangled_but_ppt": entangled_but_ppt.astype(float),
        "cross_ppt_defect": np.maximum(0.0, -cross_min.min(axis=0)),
        "sector_total": sum(sectors.values(), np.zeros(len(amplitudes))),
        **_sector_columns(sectors, len(amplitudes)),
    }


def _verify_blocks(cfg: SweepConfig, t: _Tracker) -> None:
    """Every row of ROWS, on the points of its domain, over one block per
    (channel, x) for the grid's x values and every tenth of x."""
    ps = cfg.p_grid()
    for kind, mu, x in _blocks(cfg, set(cfg.x_values) | set(TENTHS)):
        x, m, amplitudes, layout, pairs, cross_min = _block_columns(kind, mu, x, ps)
        m = {**m, "p": ps}
        if kind.n_system_qubits == 2:
            m.update(_state_columns(m, pairs, cross_min, amplitudes, layout))
        for name, row in ROWS.items():
            if kind not in row.kinds:
                continue
            at = np.flatnonzero(np.broadcast_to(row.domain(kind, mu, x, ps), len(ps)))
            t.track(name, np.broadcast_to(row.residual(m), len(ps))[at],
                    lambda i: f"{kind.value} x={x:g} p={ps[at[i]]:g}")


def _verify_kraus(cfg: SweepConfig, t: _Tracker) -> None:
    """The dilation of each (kind, mu, x) over the p grid against the
    operator-sum route, applied to the grid's Kraus operators as one stack,
    and the CADC images at mu = 0 against amplitude damping of both qubits
    in closed form."""
    ps = cfg.p_grid()
    xs = (0.5, BALANCED_X)
    for kind in cfg.channels:
        states = [initial_state(kind, x) for x in xs]
        for mu in (0.0, 0.5, 1.0) if kind is ChannelKind.CADC else (0.0,):
            def where(i: int) -> str:
                return f"{kind.value} p={ps[i]:g} mu={mu:g}"

            # mu = 0.5 has no two-qubit-environment dilation to compare
            rhos = None if mu == 0.5 else np.array([np.outer(psi, psi.conj()) for psi, _ in states])
            defects, via_kraus = _operator_sums(_kraus_stack(kind, ps, mu), rhos)
            t.track("kraus_completeness", defects, where)
            if via_kraus is None:
                continue
            check_density(via_kraus)
            if kind is ChannelKind.CADC and mu == 0.0:
                # x = 0.5 against amplitude damping of both qubits in closed form
                x, y = xs[0], states[0][0][-1].real
                split = y * y * ps * (1.0 - ps)
                diag = np.stack([x * x + (y * ps) ** 2, split, split, (y * (1.0 - ps)) ** 2], -1)
                closed = (diag[:, np.newaxis, :] * np.eye(4)).astype(complex)
                closed[:, 0, 3] = closed[:, 3, 0] = x * y * (1.0 - ps)
                t.track("cadc_memoryless_limit", np.abs(via_kraus[0] - closed).max(axis=(1, 2)),
                        lambda i: f"cadc p={ps[i]:g}")
            for x, (psi, layout), images in zip(xs, states, via_kraus):
                amplitudes, global_layout = dilate_block(kind, ps, mu, psi, layout)
                norms = (amplitudes.conj() * amplitudes).real.sum(axis=-1)
                t.track("dilation_norm", abs(norms - 1.0), where)
                via_dilation = _reduced(amplitudes, global_layout, layout.labels)[0]
                t.track("dilation_kraus_agreement", np.abs(via_dilation - images).max(axis=(1, 2)),
                        lambda i: f"{where(i)} x={x:g}")


def _verify_sudden_death(cfg: SweepConfig, t: _Tracker) -> None:
    if ChannelKind.ADC not in cfg.channels:
        return
    xs = (0.1, 0.2, 0.25, 0.3, 0.5)
    t.track(
        "adc_sudden_death",
        [abs(x / math.sqrt(1.0 - x * x) - _sudden_death_bisection(x)) for x in xs],
        lambda i: f"adc x={xs[i]:g}",
    )


def _unreached(cfg: SweepConfig, tracked) -> list[str]:
    """Rows of ROWS not in ``tracked`` that have domain points for a
    configured (kind, mu) on the default grid, which reaches every row."""
    full = SweepConfig(channels=cfg.channels, mu=cfg.mu)
    return [name for name, row in ROWS.items() if name not in tracked and any(
        kind in row.kinds and np.any(row.domain(kind, mu, x, full.p_grid()))
        for kind, mu, x in _blocks(full, set(full.x_values) | set(TENTHS)))]


def verify_command(cfg: SweepConfig) -> int:
    """Run every invariant check; print one worst-offender or SKIP line per check."""
    t = _Tracker()
    _verify_blocks(cfg, t)
    _verify_kraus(cfg, t)
    _verify_sudden_death(cfg, t)

    failures = 0
    for name in sorted([*t.worst, *_unreached(cfg, t.worst)]):
        if name not in t.worst:
            print(f"SKIP  {name:<32} no grid point in its domain")
            continue
        value, where = t.worst[name]
        ok = value <= cfg.tolerance  # False for NaN
        failures += not ok
        print(f"{'PASS' if ok else 'FAIL'}  {name:<32} worst {value:.3e}  at {where}")
    total = len(t.worst)
    print(f"{total - failures}/{total} checks within tolerance {cfg.tolerance:g}")
    return 0 if failures == 0 else 1


# --------------------------------------------------------------------------
# argument and config-file handling
# --------------------------------------------------------------------------


class _OptionError(ValueError, argparse.ArgumentTypeError):
    """A bad list value; argparse prints its message, config files see a ValueError."""


def _parse_channels(text: str) -> tuple[ChannelKind, ...]:
    kinds = []
    for token in text.split(","):
        token = token.strip().lower()
        if not token:
            continue
        try:
            kinds.append(ChannelKind(token))
        except ValueError:
            names = ",".join(k.value for k in ChannelKind)
            raise _OptionError(f"channels: unknown channel {token!r} (choose from {names})")
    return tuple(kinds)


def _parse_floats(text: str) -> tuple[float, ...]:
    try:
        return tuple(float(tok) for tok in text.split(",") if tok.strip())
    except ValueError as exc:
        raise _OptionError(f"x: {exc}") from None


def read_config_file(path: str) -> dict[str, str]:
    """Flat key=value lines, each key at most once; blank lines and
    #-comments ignored."""
    values: dict[str, str] = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected key=value, got {line!r}")
            key, _, value = line.partition("=")
            key = key.strip()
            if key in values:
                raise ValueError(f"{path}:{lineno}: key {key!r} given twice")
            values[key] = value.strip()
    return values


#: Config-file key -> (SweepConfig field, parser).  Each key is also the
#: argparse dest of its flag; SweepConfig supplies the defaults.
_CONFIG_KEYS = {
    "channels": ("channels", _parse_channels),
    "x": ("x_values", _parse_floats),
    "p_start": ("p_start", float),
    "p_stop": ("p_stop", float),
    "p_count": ("p_count", int),
    "mu": ("mu", float),
    "format": ("fmt", str),
    "out": ("output", str),
    "tolerance": ("tolerance", float),
}


def build_config(args: argparse.Namespace) -> SweepConfig:
    file_values: dict[str, str] = {}
    if getattr(args, "config", None):
        file_values = read_config_file(args.config)
        unknown = file_values.keys() - _CONFIG_KEYS.keys()
        if unknown:
            raise ValueError(f"config file: unknown keys {sorted(unknown)}")

    given = {}
    for key, (name, convert) in _CONFIG_KEYS.items():
        flag_value = getattr(args, key, None)
        if flag_value is not None:
            given[name] = flag_value
        elif key in file_values:
            try:
                given[name] = convert(file_values[key])
            except _OptionError:  # its message already names the key
                raise
            except ValueError as exc:
                raise ValueError(f"{key}: {exc}") from None
    return SweepConfig(**given)


class _Once(argparse.Action):
    """Store a flag's value; a second occurrence is an error, not an override."""

    def __call__(self, parser, namespace, values, option_string=None):
        if getattr(namespace, self.dest) is not None:
            parser.error(f"argument {option_string}: given twice")
        setattr(namespace, self.dest, values)


def _add_grid_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--channels", action=_Once, type=_parse_channels,
                        metavar="adc,cadc,...", help="comma-separated channel kinds (default: all)")
    parser.add_argument("--x", action=_Once, type=_parse_floats, metavar="0.5,0.7071,...",
                        help="comma-separated initial-state amplitudes x")
    parser.add_argument("--p-start", action=_Once, dest="p_start", type=float)
    parser.add_argument("--p-stop", action=_Once, dest="p_stop", type=float)
    parser.add_argument("--p-count", action=_Once, dest="p_count", type=int)
    parser.add_argument("--mu", action=_Once, type=float, help="CADC memory weight (0 or 1)")
    parser.add_argument("--config", action=_Once, help="flat key=value config file; flags win")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="ccrsweep",
        description="Sweep noisy-channel complementarity reports and verify identities.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sweep_p = sub.add_parser("sweep", help="evaluate a grid and write CSV/JSON")
    _add_grid_flags(sweep_p)
    sweep_p.add_argument("--format", action=_Once, choices=("csv", "json"))
    sweep_p.add_argument("--out", action=_Once, help="output file path")

    verify_p = sub.add_parser("verify", help="run the identity/invariant suite")
    _add_grid_flags(verify_p)
    verify_p.add_argument("--tolerance", action=_Once, type=float,
                          help="residual bound (default 1e-10)")

    args = parser.parse_args(argv)
    try:
        cfg = build_config(args)
        if args.command == "sweep" and cfg.output is None:
            raise ValueError("out: an output path is required for sweep")
    except (ValueError, OSError) as exc:
        print(f"ccrsweep: configuration error: {exc}", file=sys.stderr)
        return 2

    if args.command == "sweep":
        try:
            emit(sweep_table(cfg), cfg.fmt, cfg.output)
        except OSError as exc:
            print(f"ccrsweep: {exc}", file=sys.stderr)
            return 1
        return 0
    return verify_command(cfg)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
