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
from array import array
from dataclasses import dataclass, field
from typing import Iterator

import numpy as np

from .channels import (
    _INTEGER, _REAL, _TWO_QUBIT_KINDS, ChannelKind, _dilate, _is_a, _kraus_stack, _operator_sums)
from .linalg import TRACE_TOL, check_density
from .measures import PPT_TOL, _sectors
from .reports import (
    APPLICABLE_IDENTITIES,
    BALANCED_X,
    IDENTITIES,
    Identity,
    IdentityId,
    _block_columns,
    _initial_state,
    _reduced,
    _sector_columns,
    _sudden_death_bisection,
    is_balanced,
)

#: Initial-state grid matching the curve families usually plotted.
DEFAULT_X = (0.1, 0.2, 0.25, 0.5, BALANCED_X)

#: Every tenth of x, which verify covers besides the grid's x values.
TENTHS = tuple(round(0.1 * i, 1) for i in range(11))

#: The largest p grid a run accepts, ten times the dense 1 001-point grid.  A
#: sweep holds its table in memory: at 1 001 p the default grid peaks at 75 MB
#: RSS as CSV (0.33-0.55 s) and 185 MB as JSON (0.93 s) (2-core host, numpy
#: 2.4), about linear in p.
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
        if bad := [kind for kind in self.channels if not isinstance(kind, ChannelKind)]:
            raise ValueError(f"channels: {bad[0]!r} is not a ChannelKind")
        for i, kind in enumerate(self.channels):
            if kind in self.channels[:i]:
                raise ValueError(f"channels: duplicate channel {kind.value}")
        if not isinstance(self.x_values, (tuple, list)) or not self.x_values:
            raise ValueError(
                f"x: must name at least one value in a tuple or list, got {self.x_values!r}")
        if bad := [x for x in self.x_values if not _is_a(x, _REAL)]:
            raise ValueError(f"x: {bad[0]!r} is not a real number")
        if not all(0.0 <= x <= 1.0 for x in self.x_values):
            raise ValueError(f"x: values must lie in [0, 1], got {self.x_values}")
        for i, x in enumerate(self.x_values):
            if x in self.x_values[:i]:
                raise ValueError(f"x: duplicate value {x}")
        if not _is_a(self.p_count, _INTEGER):
            raise ValueError(f"p_count: must be an integer, got {self.p_count!r}")
        if not 2 <= self.p_count <= MAX_P_COUNT:
            raise ValueError(f"p_count: must lie in [2, {MAX_P_COUNT}], got {self.p_count}")
        for key in ("p_start", "p_stop", "mu", "tolerance"):
            if not _is_a(value := getattr(self, key), _REAL):
                raise ValueError(f"{key}: must be a real number, got {value!r}")
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
        """The p values in float64: a narrower p_start or p_stop is widened, which is exact."""
        return np.linspace(float(self.p_start), float(self.p_stop), self.p_count)


#: The most dilated amplitudes the engine evaluates as one block, 500
#: two-qubit rows (x, p) of 16 amplitudes: whole x values of a (kind, mu) are
#: stacked up to it, four x of the default 101 p for a two-qubit kind and all
#: 13 x of the verify walk (5 252 amplitudes) for a one-qubit kind.  Peak
#: memory grows with a block while the time saved flattens out: against one
#: x per block, the default verify walk took 0.64 of the time at 1.03 times
#: the peak RSS with 404 two-qubit rows, 0.61 at 1.08 with 707 rows and 0.57
#: at 1.15 with all 1 313 rows of a kind (2-core host, numpy 2.4).
_BLOCK_AMPLITUDES = 500 * 16


def _blocks(cfg: SweepConfig, x_values) -> Iterator[tuple[ChannelKind, float, np.ndarray]]:
    """The (kind, mu, xs) of each block over ``x_values`` and the p grid,
    ordered channel / x asc: xs is an ascending array of whole x values of
    at most _BLOCK_AMPLITUDES dilated amplitudes, or one x when a single x
    has more.  mu is the config's for CADC and 0 for every other kind, and
    the bit flip channel is evaluated at x = 1/sqrt(2) only."""
    for kind in cfg.channels:
        per_block = max(1, _BLOCK_AMPLITUDES // (cfg.p_count * 4**kind.n_system_qubits))
        mu = cfg.mu if kind is ChannelKind.CADC else 0.0
        xs = np.array([BALANCED_X] if kind is ChannelKind.BFC else sorted(x_values))
        for start in range(0, len(xs), per_block):
            yield kind, mu, xs[start:start + per_block]


def _rows(xs: np.ndarray, ps: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The x and the p of each row of a block over ``xs``: x-major, p ascending."""
    return np.repeat(xs, len(ps)), np.tile(ps, len(xs))


#: A sweep table: one dict per (channel, x) block, in row order, mapping each
#: of CSV_COLUMNS to the block's cells, p ascending.  "p" is the sweep's one
#: p grid, shared by every block, and a measure or residual column a float64
#: view of its engine block's column; "channel", "mu", "x" and a column
#: holding a None are lists (of str, of the numbers as given, of reals and
#: None).
Table = list[dict[str, list | np.ndarray]]


def sweep_table(cfg: SweepConfig) -> Table:
    """The sweep's rows as block columns, ordered channel / x asc / p asc:
    inapplicable measures and off-domain headline residuals are None.  Each
    engine block is split back into one dict per (channel, x)."""
    ps = cfg.p_grid()
    n = len(ps)
    given = {x: np.asarray(x).item() for x in cfg.x_values}  # as given, as a Python number
    table = []
    for kind, mu, xs in _blocks(cfg, cfg.x_values):
        x_rows, p_rows = _rows(xs, ps)
        m, *_ = _block_columns(kind, mu, xs, ps)
        headline = IDENTITIES[APPLICABLE_IDENTITIES[kind][0]]
        in_domain = np.broadcast_to(headline.domain(kind, mu, x_rows, p_rows), len(p_rows))
        columns = {name: m.get(name) for name in CSV_COLUMNS[4:-2]}
        columns["residual_ccr"] = IDENTITIES[IdentityId.CCR_UNIVERSAL].residual(m)
        columns["residual_channel_identity"] = headline.residual(m)
        for i, x in enumerate(xs.tolist()):
            rows = slice(i * n, (i + 1) * n)
            block = {"channel": [kind.value] * n, "mu": [np.asarray(mu).item()] * n,
                     "x": [given.get(x, x)] * n, "p": ps}
            block.update({name: [None] * n if cells is None else cells[rows]
                          for name, cells in columns.items()})
            if not (ok := in_domain[rows]).all():  # a list of reals and None
                block["residual_channel_identity"] = [
                    r if k else None
                    for r, k in zip(block["residual_channel_identity"].tolist(), ok.tolist())]
            table.append(block)
    return table


def render_csv(table: Table) -> str:
    """The table as CSV: None as an empty cell, a str as itself and a real as
    ``repr(float(v))``, the shortest decimal that round-trips.  Every column
    of reals, an array or a list, goes into one float64 array, and each
    distinct bit pattern in it is formatted once, so 0.0 and -0.0 keep their
    own texts; a column holding a None or a str is formatted cell by cell."""
    reals, blocks = array("d"), []
    for block in table:
        blocks.append(columns := [])
        for name in CSV_COLUMNS:
            start, cells = len(reals), block[name]
            try:
                if isinstance(cells, np.ndarray):  # its float64 bytes, in one copy
                    reals.frombytes(np.ascontiguousarray(cells, np.float64).view(np.uint8))
                else:  # converts as float(v) does; unchanged on TypeError
                    reals.fromlist(cells)
                columns.append(slice(start, len(reals)))
            except TypeError:
                columns.append(["" if v is None else v if isinstance(v, str) else repr(float(v))
                                for v in cells])
    bits, inverse = np.unique(np.frombuffer(reals, np.uint64), return_inverse=True)
    texts = np.array([repr(v) for v in bits.view(np.float64).tolist()], object)[inverse].tolist()
    del reals, inverse  # 16 bytes a real cell, not needed to join the rows
    lines = [",".join(CSV_COLUMNS)]
    for columns in blocks:
        lines += map(",".join, zip(*(texts[c] if isinstance(c, slice) else c for c in columns)))
    return "\n".join(lines) + "\n"


def render_json(table: Table) -> str:
    rows = [dict(zip(CSV_COLUMNS, cells)) for block in table  # an array's cells as floats
            for cells in zip(*(c.tolist() if isinstance(c, np.ndarray) else c
                               for c in map(block.__getitem__, CSV_COLUMNS)))]
    return json.dumps(rows, indent=2) + "\n"


def emit(table: Table, fmt: str, path: str) -> None:
    """Write the table of :func:`sweep_table`; field names and order are
    identical for both formats, with inapplicable measures and off-domain
    identity residuals left empty (CSV) or null (JSON)."""
    if not table:
        raise ValueError("nothing to emit: no reports were produced")
    if fmt not in ("csv", "json"):
        raise ValueError(f"format: must be csv or json, got {fmt!r}")
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

    def track(self, name: str, values, kind: ChannelKind, **coords) -> None:
        """Record the largest of ``values`` (N,) (the first on ties; NaN ranks
        above every number) if it beats the worst so far, placed at
        "<kind> k=v ..." by each coordinate in the order given: a number, or an
        array (N,) aligned with ``values``; an empty array records nothing."""
        values = np.asarray(values, dtype=float)
        if values.size == 0:
            return
        i = int(values.argmax())  # the first NaN, if any
        new, old = float(values[i]), self.worst.get(name, (None,))[0]
        if old is None or new > old or math.isnan(new) > math.isnan(old):
            at = (f"{k}={v[i] if np.ndim(v) else v:g}" for k, v in coords.items())
            self.worst[name] = (new, " ".join([kind.value, *at]))


#: The checks of verify beside IDENTITIES, by name, over a block's measure
#: columns, its "p" column and, for two-qubit kinds, its "ppt_min" (the
#: engine's partial-transpose minima, the A-B pair's, then the cross pairs')
#: and "sectors" (its sector weights, one row per mask).
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
    "xstate_ppt_consistency": Identity(tuple(_TWO_QUBIT_KINDS), lambda m: (
        (m["concurrence_AB"] > 1e-10) & (m["ppt_min"][0] >= -PPT_TOL)).astype(float)),
    "cross_partition_ppt": Identity((ChannelKind.PDC, ChannelKind.BFC),
                                    lambda m: np.maximum(0.0, -m["ppt_min"][1:].min(axis=0))),
    # row by row in mask order; np.sum may reorder
    "sector_total_consistency": Identity(
        tuple(_TWO_QUBIT_KINDS), lambda m: abs(sum(m["sectors"]) - m["C_global"])),
}

#: Every row verify checks, by name: IDENTITIES, then CHECKS.
ROWS: dict[str, Identity] = {ident.value: row for ident, row in IDENTITIES.items()} | CHECKS


def _verify_blocks(cfg: SweepConfig, t: _Tracker) -> set[str]:
    """Every row of ROWS, on the points of its domain, over the blocks of
    :func:`_blocks` for the grid's x values and every tenth of x; returns
    the names of the rows that apply to some block (see :class:`Identity`)."""
    ps = cfg.p_grid()
    applied = set()
    for kind, mu, xs in _blocks(cfg, set(cfg.x_values) | set(TENTHS)):
        x_rows, p_rows = _rows(xs, ps)
        m, amplitudes, layout, ppt_min = _block_columns(kind, mu, xs, ps)
        m = {**m, "p": p_rows}
        if kind.n_system_qubits == 2:  # decomposed into sectors once, here
            m.update(ppt_min=ppt_min, sectors=_sectors(amplitudes, len(layout.labels)))
            m.update(_sector_columns(m["sectors"]))
        for name, row in ROWS.items():
            domain = kind in row.kinds and row.domain(kind, mu, x_rows, p_rows)
            if not isinstance(domain, np.ndarray) and not domain:
                continue
            applied.add(name)
            at = domain if isinstance(domain, np.ndarray) else slice(None)  # a mask over the rows
            t.track(name, row.residual(m)[at], kind, x=x_rows[at], p=p_rows[at])
    return applied


def _verify_kraus(cfg: SweepConfig, t: _Tracker) -> None:
    """The dilation of each (kind, mu) over the grid of two x and the p grid
    against the operator-sum route, both from one channel tensor, and the
    CADC images at mu = 0 against amplitude damping of both qubits in closed
    form."""
    ps = cfg.p_grid()
    xs = np.array([0.5, BALANCED_X])
    x_rows, p_rows = _rows(xs, ps)
    for kind in cfg.channels:
        psi, layout = _initial_state(kind, xs)
        rhos = psi[:, :, np.newaxis] * psi[:, np.newaxis, :].conj()
        for mu in (0.0, 0.5, 1.0) if kind is ChannelKind.CADC else (0.0,):
            # mu = 0.5 has no two-qubit-environment dilation to compare
            kraus = _kraus_stack(kind, ps, mu)
            defects, via_kraus = _operator_sums(kraus, None if mu == 0.5 else rhos)
            t.track("kraus_completeness", defects, kind, p=ps, mu=mu)
            if via_kraus is None:
                continue
            # the images keep the trace as far as their set's defect allows: each
            # trace defect is a row, and the images within TRACE_TOL are checked
            traces = np.abs(np.einsum("...ii->...", via_kraus) - 1.0)
            t.track("kraus_image_trace", traces.ravel(), kind, p=p_rows, mu=mu, x=x_rows)
            if (within := traces <= TRACE_TOL).any():
                check_density(via_kraus[within])
            if kind is ChannelKind.CADC and mu == 0.0:
                # x = 0.5 against amplitude damping of both qubits in closed form
                x, y = psi[0, 0], psi[0, -1]
                split = y * y * ps * (1.0 - ps)
                diag = np.stack([x * x + (y * ps) ** 2, split, split, (y * (1.0 - ps)) ** 2], -1)
                closed = diag[:, np.newaxis, :] * np.eye(4)
                closed[:, 0, 3] = closed[:, 3, 0] = x * y * (1.0 - ps)
                t.track("cadc_memoryless_limit", np.abs(via_kraus[0] - closed).max(axis=(1, 2)),
                        kind, p=ps)
            amplitudes, global_layout = _dilate(kraus, psi, layout)
            norms = (amplitudes.conj() * amplitudes).real.sum(axis=-1)
            t.track("dilation_norm", abs(norms - 1.0), kind, p=p_rows, mu=mu, x=x_rows)
            via_dilation = _reduced(amplitudes, global_layout, layout.labels)[0]
            t.track("dilation_kraus_agreement",
                    np.abs(via_dilation - via_kraus.reshape(via_dilation.shape)).max(axis=(1, 2)),
                    kind, p=p_rows, mu=mu, x=x_rows)


def _verify_sudden_death(cfg: SweepConfig, t: _Tracker) -> None:
    if ChannelKind.ADC not in cfg.channels:
        return
    xs = np.array([0.1, 0.2, 0.25, 0.3, 0.5])
    t.track("adc_sudden_death", np.abs(xs / np.sqrt(1.0 - xs * xs) - _sudden_death_bisection(xs)),
            ChannelKind.ADC, x=xs)


def verify_command(cfg: SweepConfig) -> int:
    """Run every invariant check; print one worst-offender or SKIP line per check."""
    t = _Tracker()
    applied = _verify_blocks(cfg, t)
    _verify_kraus(cfg, t)
    _verify_sudden_death(cfg, t)

    failures = 0
    for name in sorted(t.worst.keys() | applied):
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
