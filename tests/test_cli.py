import argparse
import dataclasses
import json
import math
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ccrsweep import channels, cli, measures, reports
from ccrsweep.channels import ChannelKind, ChannelSpec
from ccrsweep.linalg import check_density, outer, partial_trace
from ccrsweep.measures import (
    correlated_coherence_hs, hs_coherence, is_ppt, sector_decomposition)
from ccrsweep.reports import (
    APPLICABLE_IDENTITIES,
    BALANCED_X,
    IDENTITIES,
    PAIRS,
    Identity,
    IdentityId,
    _block_columns,
    _sector_columns,
    ccr_report,
)
from ccrsweep.cli import (
    CSV_COLUMNS,
    DEFAULT_X,
    MAX_P_COUNT,
    TENTHS,
    _BLOCK_AMPLITUDES,
    SweepConfig,
    _blocks,
    _Tracker,
    _rows,
    _verify_blocks,
    _verify_kraus,
    _verify_sudden_death,
    build_config,
    emit,
    main,
    render_csv,
    render_json,
    sweep_table,
    verify_command,
)

INV_SQRT2 = 1 / math.sqrt(2)


def small_config(**overrides):
    defaults = dict(
        channels=(ChannelKind.ADC,),
        x_values=(0.5,),
        p_start=0.0,
        p_stop=1.0,
        p_count=5,
    )
    defaults.update(overrides)
    return SweepConfig(**defaults)


class TestConfigValidation:
    def test_needs_channels(self):
        with pytest.raises(ValueError, match="channels"):
            small_config(channels=())

    @pytest.mark.parametrize("channels", [("adc",), (ChannelKind.ADC, "pdc"), (None,)])
    def test_channels_must_be_channel_kinds(self, channels):
        # a name is not coerced: it would fail only later, inside the engine
        bad = next(c for c in channels if not isinstance(c, ChannelKind))
        with pytest.raises(ValueError, match=f"channels: {bad!r} is not a ChannelKind"):
            small_config(channels=channels)

    def test_p_count_floor(self):
        with pytest.raises(ValueError, match="p_count"):
            small_config(p_count=1)

    def test_p_count_ceiling(self):
        # the bound itself is accepted; no grid near it is evaluated here
        assert MAX_P_COUNT >= 1001  # the dense grid
        assert small_config(p_count=MAX_P_COUNT).p_count == MAX_P_COUNT
        with pytest.raises(ValueError, match="p_count"):
            small_config(p_count=MAX_P_COUNT + 1)

    @pytest.mark.parametrize("command", ["sweep", "verify"])
    def test_p_count_above_the_ceiling_exits_2(self, tmp_path, capsys, command):
        out = tmp_path / "rows.csv"
        argv = [command, "--channels", "pfc", "--p-count", str(MAX_P_COUNT + 1)]
        if command == "sweep":
            argv += ["--out", str(out)]
        assert main(argv) == 2
        assert f"p_count: must lie in [2, {MAX_P_COUNT}]" in capsys.readouterr().err
        assert not out.exists()

    def test_p_interval_ordering(self):
        with pytest.raises(ValueError, match="p_start/p_stop"):
            small_config(p_start=0.8, p_stop=0.2)

    def test_x_range(self):
        with pytest.raises(ValueError, match="x:"):
            small_config(x_values=(1.5,))

    @pytest.mark.parametrize("x", ["0.5", True, np.True_, 0.5j, None, Fraction(1, 2),
                                   np.longdouble(0.5)],
                             ids=["str", "bool", "numpy-bool", "complex", "none", "fraction",
                                  "longdouble"])
    def test_x_must_be_real(self, x):
        # checked before the range, so no TypeError leaks out of a comparison
        with pytest.raises(ValueError, match=r"x: .* is not a real number"):
            small_config(x_values=(0.5, x))

    @pytest.mark.parametrize("p_count", [3.5, 5.0, "5", True, None],
                             ids=["fraction", "integral-float", "str", "bool", "none"])
    def test_p_count_must_be_an_integer(self, p_count):
        # not coerced: 3.5 would otherwise reach np.linspace as a TypeError
        with pytest.raises(ValueError, match=r"p_count: must be an integer, got "):
            small_config(channels=(ChannelKind.PFC,), p_count=p_count)

    @pytest.mark.parametrize("key", ["p_start", "p_stop", "mu", "tolerance"])
    @pytest.mark.parametrize("value", ["0.5", True, False, np.True_, 0.5j, None, Fraction(1, 2),
                                       np.longdouble(0.5)],
                             ids=["str", "true", "false", "numpy-bool", "complex", "none",
                                  "fraction", "longdouble"])
    def test_interval_values_must_be_real(self, key, value):
        # checked before the ranges: a bool is not taken as 0 or 1, no
        # TypeError leaks out of a comparison, and a Fraction, which numpy's
        # ufuncs cannot take, does not reach the p grid, nor a longdouble,
        # which float64 would round and json cannot write
        with pytest.raises(ValueError, match=rf"{key}: must be a real number, got "):
            small_config(**{key: value})

    def test_numpy_and_integer_interval_values_accepted_as_given(self):
        cfg = small_config(channels=(ChannelKind.CADC,), p_start=0, p_stop=np.float64(0.5),
                           mu=1, tolerance=np.float64(1e-9))
        assert (cfg.p_start, cfg.p_stop, cfg.mu, cfg.tolerance) == (0, 0.5, 1, 1e-9)
        assert cfg.p_grid().tolist() == [0.0, 0.125, 0.25, 0.375, 0.5]

    @pytest.mark.parametrize("p_stop", [np.float32(0.5), np.float32(0.3)], ids=["0.5", "0.3"])
    def test_a_float32_p_stop_verifies_as_its_float64_value(self, capsys, p_stop):
        # widened where it enters the p grid: not a float32 engine at 3e-7
        wide = SweepConfig(channels=(ChannelKind.ADC,), p_stop=float(p_stop))
        narrow = SweepConfig(channels=(ChannelKind.ADC,), p_stop=p_stop)
        assert narrow.p_stop is p_stop
        assert narrow.p_grid().dtype == np.float64
        assert narrow.p_grid().tobytes() == wide.p_grid().tobytes()
        assert verify_command(wide) == 0
        want = capsys.readouterr().out
        assert verify_command(narrow) == 0
        assert capsys.readouterr().out == want

    def test_numpy_and_integer_numbers_accepted_as_given(self):
        cfg = small_config(x_values=(np.float64(0.25), 1), p_count=np.int64(3))
        assert cfg.x_values == (0.25, 1) and type(cfg.x_values[1]) is int
        assert len(cfg.p_grid()) == 3

    def test_x_nonempty(self):
        with pytest.raises(ValueError, match="x: must name at least one value"):
            small_config(x_values=())

    @pytest.mark.parametrize("x_values", [np.array([0.2, 0.5]), np.array([0.5]), {0.5}],
                             ids=["array", "one-array", "set"])
    def test_x_must_be_a_tuple_or_list(self, x_values):
        # no numpy truth-value error, and no set that cannot be sliced for duplicates
        with pytest.raises(ValueError, match=r"x: .* in a tuple or list, got "):
            small_config(x_values=x_values)

    def test_x_duplicates_rejected(self):
        with pytest.raises(ValueError, match="x: duplicate value 0.5"):
            small_config(x_values=(0.2, 0.5, 0.5))

    def test_channel_duplicates_rejected(self):
        # no sweep writes the same row twice
        with pytest.raises(ValueError, match="channels: duplicate channel adc"):
            small_config(channels=(ChannelKind.ADC, ChannelKind.PDC, ChannelKind.ADC))

    def test_fractional_mu_with_correlated_damping(self):
        with pytest.raises(ValueError, match="mu"):
            small_config(channels=(ChannelKind.CADC,), mu=0.5)

    def test_format_checked(self):
        with pytest.raises(ValueError, match="format"):
            small_config(fmt="xml")

    def test_tolerance_positive(self):
        with pytest.raises(ValueError, match="tolerance"):
            small_config(tolerance=0.0)

    @pytest.mark.parametrize("tolerance", [1.0, math.inf])
    def test_tolerance_below_one(self, tolerance):
        # a 0/1 indicator check could never fail at such a bound
        with pytest.raises(ValueError, match="tolerance"):
            small_config(tolerance=tolerance)

    def test_empty_p_interval_rejected(self):
        with pytest.raises(ValueError, match="p_start/p_stop"):
            small_config(p_start=0.5, p_stop=0.5, p_count=3)


def table_rows(table, *names):
    """The (names...) cells of each row of a sweep table, in row order."""
    return [cells for block in table for cells in zip(*(block[name] for name in names))]


class TestRunSweep:
    """A sweep's grid, row order and identities, read from its table."""

    def test_cardinality(self):
        assert len(table_rows(sweep_table(small_config(p_count=3)), "p")) == 3

    def test_ordering_and_grid(self):
        cfg = small_config(x_values=(0.7, 0.2), p_count=3)
        observed = table_rows(sweep_table(cfg), "x", "p")
        assert observed == [(0.2, 0.0), (0.2, 0.5), (0.2, 1.0), (0.7, 0.0), (0.7, 0.5), (0.7, 1.0)]

    def test_bit_flip_collapses_x_grid(self):
        cfg = small_config(channels=(ChannelKind.BFC,), x_values=(0.2, 0.5, 0.8), p_count=3)
        xs = table_rows(sweep_table(cfg), "x")
        assert len(xs) == 3
        assert all(x == INV_SQRT2 for x, in xs)

    def test_identities_hold_on_dense_grid(self):
        # every identity, headline or not, over the engine blocks the sweep renders
        cfg = SweepConfig(p_count=1001)
        ps = cfg.p_grid()
        rows, worst = 0, {}
        for kind, mu, x in _blocks(cfg, cfg.x_values):
            m, amplitudes, layout, _ = _block_columns(kind, mu, x, ps)
            if kind is ChannelKind.PDC:  # the columns of pdc_nl_sum
                m.update(_sector_columns(measures._sectors(amplitudes, len(layout.labels))))
            rows += len(ps)
            for ident, row in IDENTITIES.items():
                if kind not in row.kinds:
                    continue
                at = np.broadcast_to(row.domain(kind, mu, x, ps), len(ps))
                if at.any():
                    in_domain = np.broadcast_to(row.residual(m), len(ps))[at]
                    worst[ident] = max(worst.get(ident, 0.0), float(in_domain.max()))
        assert rows == 31031
        assert set(worst) == set(IdentityId)
        assert max(worst.values()) <= 1e-10, worst

    def test_sudden_death_visible_in_concurrence_column(self):
        cfg = small_config(p_count=101)
        dead_at = 0.5 / math.sqrt(1 - 0.25)  # 1/sqrt(3)
        step = 0.01
        for p, c in table_rows(sweep_table(cfg), "p", "concurrence_AB"):
            if p >= dead_at + step:
                assert c == 0.0
            elif p <= dead_at - step:
                assert c > 0.0


class TestEmit:
    def test_csv_header(self, tmp_path):
        out = tmp_path / "table.csv"
        emit(sweep_table(small_config(p_count=3)), "csv", str(out))
        first = out.read_text().splitlines()[0]
        assert first == (
            "channel,mu,x,p,P_hs_A,C_hs_A,S_l_A,Cc_AB,Cc_AEA,Cc_AEB,Cc_EAEB,Cc_ABE,"
            "C_global,C_env,concurrence_AB,ppt_AEA,ppt_AEB,ppt_EAEB,mutual_info_AB,"
            "residual_ccr,residual_channel_identity"
        )

    def test_one_qubit_rows_leave_pair_cells_empty(self):
        cfg = small_config(channels=(ChannelKind.PFC,), p_count=3)
        lines = render_csv(sweep_table(cfg)).splitlines()
        header = lines[0].split(",")
        row = dict(zip(header, lines[1].split(",")))
        assert row["channel"] == "pfc"
        assert row["Cc_AB"] == ""
        assert row["mutual_info_AB"] == ""
        assert row["Cc_AEA"] != ""

    def test_csv_round_trip_is_byte_identical(self):
        text = render_csv(sweep_table(small_config(p_count=4)))
        lines = text.splitlines()
        rebuilt = [lines[0]]
        for line in lines[1:]:
            cells = line.split(",")
            out = [cells[0]]  # channel name passes through
            out += ["" if c == "" else repr(float(c)) for c in cells[1:]]
            rebuilt.append(",".join(out))
        assert "\n".join(rebuilt) + "\n" == text

    def test_json_mirrors_csv_fields(self, tmp_path):
        out = tmp_path / "table.json"
        emit(sweep_table(small_config(channels=(ChannelKind.DC,), p_count=3)), "json", str(out))
        rows = json.loads(out.read_text())
        assert len(rows) == 3
        assert list(rows[0].keys()) == list(CSV_COLUMNS)
        assert rows[0]["Cc_AB"] is None
        assert rows[0]["channel"] == "dc"

    def test_off_domain_headline_residual_left_empty(self):
        # the CADC identities are those of mu = 1; 3/2 holds for dc at 1/sqrt(2) only
        for cfg, expect_empty in (
            (small_config(channels=(ChannelKind.CADC,), mu=0.0, p_count=3), True),
            (small_config(channels=(ChannelKind.CADC,), mu=1.0, p_count=3), False),
            (small_config(channels=(ChannelKind.DC,), p_count=3), True),
            (small_config(channels=(ChannelKind.DC,), x_values=(INV_SQRT2,), p_count=3), False),
        ):
            lines = render_csv(sweep_table(cfg)).splitlines()
            header = lines[0].split(",")
            for line in lines[1:]:
                row = dict(zip(header, line.split(",")))
                assert (row["residual_channel_identity"] == "") is expect_empty
                assert row["residual_ccr"] != ""

    def test_unknown_format_rejected_before_writing(self, tmp_path):
        out = tmp_path / "table.xml"
        with pytest.raises(ValueError, match="format: must be csv or json, got 'xml'"):
            emit(sweep_table(small_config(p_count=3)), "xml", str(out))
        assert not out.exists()

    def test_nothing_to_emit(self, tmp_path):
        with pytest.raises(ValueError, match="no reports"):
            emit([], "csv", str(tmp_path / "x.csv"))

    def test_determinism(self, tmp_path):
        cfg = small_config(channels=(ChannelKind.ADC, ChannelKind.PFC), p_count=7)
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        emit(sweep_table(cfg), "csv", str(a))
        emit(sweep_table(cfg), "csv", str(b))
        assert a.read_bytes() == b.read_bytes()


def per_report_rows(cfg):
    """The table as a per-point route builds it: one ccr_report per grid
    point, ordered channel / x asc / p asc, the bit flip channel at
    x = 1/sqrt(2) only, the headline residual left out off its domain."""
    rows = []
    for kind in cfg.channels:
        mu = cfg.mu if kind is ChannelKind.CADC else 0.0
        for x in (BALANCED_X,) if kind is ChannelKind.BFC else sorted(cfg.x_values):
            for p in np.linspace(cfg.p_start, cfg.p_stop, cfg.p_count).tolist():
                r = ccr_report(ChannelSpec(kind, p, mu), x)
                row = {"channel": kind.value, "mu": mu, "x": r.x, "p": p}
                row.update({name: r.measures.get(name) for name in CSV_COLUMNS[4:-2]})
                row["residual_ccr"] = r.residuals[IdentityId.CCR_UNIVERSAL]
                headline = APPLICABLE_IDENTITIES[kind][0]
                in_domain = IDENTITIES[headline].domain(kind, mu, r.x, p)
                row["residual_channel_identity"] = r.residuals[headline] if in_domain else None
                rows.append(row)
    return rows


def per_report_csv(rows):
    def cell(v):
        return "" if v is None else v if isinstance(v, str) else repr(float(v))

    lines = [",".join(CSV_COLUMNS)]
    lines += [",".join(cell(row[name]) for name in CSV_COLUMNS) for row in rows]
    return "\n".join(lines) + "\n"


def per_cell_csv(table):
    """The table as the per-cell rule renders it, the reference for render_csv."""
    return per_report_csv([dict(zip(CSV_COLUMNS, cells)) for cells in table_rows(table, *CSV_COLUMNS)])


def _float_of_bits(bits):
    return float(np.array(bits, np.uint64).view(np.float64))


# any float64 (signed zeros, NaNs of either sign and any payload, infinities,
# subnormals) as a float or np.float64, and the other reals a cell may hold
FLOAT64 = st.one_of(st.floats(), st.integers(0, 2**64 - 1).map(_float_of_bits))
REAL_CELL = st.one_of(FLOAT64, FLOAT64.map(np.float64), st.floats(width=32).map(np.float32),
                      st.integers(-2**1023, 2**1023), st.booleans())


def _float64_array(cells):
    return np.array([float(v) for v in cells], np.float64)


@st.composite
def tables(draw):
    pool = draw(st.lists(REAL_CELL, min_size=1, max_size=4))  # values repeated across the table
    real = st.one_of(REAL_CELL, st.sampled_from(pool))
    text = st.text(max_size=3)
    cells = [real, st.none(), text, st.one_of(real, st.none(), text)]
    table = []
    for _ in range(draw(st.integers(0, 3))):
        n = draw(st.integers(0, 4))
        columns = [st.lists(c, min_size=n, max_size=n) for c in cells]
        # a column of reals may also be a float64 array, as sweep_table writes one
        columns.append(columns[0].map(_float64_array))
        table.append({name: draw(draw(st.sampled_from(columns))) for name in CSV_COLUMNS})
    return table


@settings(max_examples=100, deadline=None)
@given(tables())
def test_render_csv_is_the_per_cell_rule_property(table):
    assert render_csv(table) == per_cell_csv(table)


class TestSweepTable:
    @pytest.mark.parametrize("cfg", [
        SweepConfig(p_count=11),
        SweepConfig(channels=(ChannelKind.CADC,), mu=0.0, p_count=11),
        small_config(channels=(ChannelKind.DC,), x_values=(0.3, INV_SQRT2), p_count=7),
        small_config(channels=(ChannelKind.PFC, ChannelKind.BPFC, ChannelKind.DC),
                     x_values=(0, 0.45, 1), p_count=6),  # JSON writes integer x as given
        SweepConfig(channels=(ChannelKind.ADC, ChannelKind.CADC),
                    x_values=tuple(np.linspace(0.1, 0.9, 3)), mu=np.float64(1.0), p_count=4),
    ], ids=["default", "cadc-mu0", "dc-off-and-on-balanced", "one-qubit", "numpy-floats"])
    def test_renders_the_per_report_rows_byte_for_byte(self, cfg):
        rows = per_report_rows(cfg)
        table = sweep_table(cfg)
        assert render_csv(table) == per_report_csv(rows)
        assert render_json(table) == json.dumps(rows, indent=2) + "\n"
        assert json.loads(render_json(table)) == json.loads(json.dumps(rows))

    def test_numpy_scalar_x_and_mu_are_written_as_python_numbers(self):
        # json cannot write a numpy float32 or int64; an integer x or mu stays an integer
        cfg = small_config(channels=(ChannelKind.CADC,), x_values=(np.float32(0.3), np.int64(1)),
                           mu=np.int64(1), p_count=2)
        cells = [(row["x"], row["mu"]) for row in json.loads(render_json(sweep_table(cfg)))]
        assert cells == [(float(np.float32(0.3)), 1)] * 2 + [(1, 1)] * 2
        assert [type(v) for cell in cells for v in cell] == [float, int] * 2 + [int, int] * 2

    def test_renders_signed_zeros_nan_and_mixed_types_byte_for_byte(self):
        # reals are formatted once per float64 bit pattern, not per value:
        # 0.0 == -0.0 (and 0 == -0.0), yet each zero keeps its own text
        nan = float("nan")
        rows = [{name: None for name in CSV_COLUMNS} for _ in range(8)]
        cells = {
            "channel": ["adc"] * 4 + ["pfc"] * 4,
            "mu": [0, 0, 1, np.float64(1.0), 0.0, -0.0, np.float64(-0.0), 0],
            "x": [0, 0, 0, 0, np.float64(0.5), 0.5, 1, 1],
            "p": [0.0, -0.0, 0.5, np.float64(0.5), -0.0, 0.0, nan, 1e-300],
            "P_hs_A": [-0.0, 0.0, -0.0, np.float64(0.0), nan, np.float64(nan), 0.25, -0.25],
            "C_hs_A": [None, 0.0, None, -0.0, None, np.float64(-0.0), 0.0, None],
            "mutual_info_AB": [1 / 3, np.float64(1 / 3), -1 / 3, 2, 2.0, -2, 0.1 + 0.2, 0.3],
        }
        for name, column in cells.items():
            for row, v in zip(rows, column):
                row[name] = v
        table = [{name: [row[name] for row in rows[i:i + 4]] for name in CSV_COLUMNS}
                 for i in (0, 4)]
        text = render_csv(table)
        assert text == per_report_csv(rows)
        assert ",-0.0," in text and ",nan," in text and "1e-300" in text

    def test_one_dict_of_columns_per_block(self):
        cfg = small_config(channels=(ChannelKind.ADC, ChannelKind.BFC), x_values=(0.5, 0.2),
                           p_count=3)
        table = sweep_table(cfg)
        assert [(b["channel"][0], b["x"][0]) for b in table] == [
            ("adc", 0.2), ("adc", 0.5), ("bfc", INV_SQRT2)]
        for block in table:
            assert list(block) == list(CSV_COLUMNS)
            assert all(len(cells) == 3 for cells in block.values())
            assert block["p"] is table[0]["p"]  # every block shares the one p grid
            assert block["p"].tolist() == [0.0, 0.5, 1.0]
            # each measure and residual is a float64 array; the given cells are lists
            arrays = {name for name, cells in block.items() if isinstance(cells, np.ndarray)}
            assert arrays == set(CSV_COLUMNS[3:])
            assert all(block[name].dtype == np.float64 for name in arrays)

    def test_empty_table_renders_as_empty_json_array(self):
        assert render_json([]) == json.dumps([], indent=2) + "\n"
        assert render_csv([]) == ",".join(CSV_COLUMNS) + "\n"

    def test_formats_each_distinct_bit_pattern_of_a_sweep_once(self, monkeypatch):
        # the sweep_2q benchmark's table (seed 1): 32 320 real cells, of which
        # 8 892 distinct bit patterns and 8 696 zeros on a 2-core host with
        # numpy 2.4; formatting every zero at every cell took 17 587 calls
        x = (0.103032006670697, 0.24437469566694214, 0.6438251602365587,
             0.8309490013807878, 0.836417627133023)
        kinds = (ChannelKind.ADC, ChannelKind.CADC, ChannelKind.PDC, ChannelKind.BFC)
        table = sweep_table(SweepConfig(channels=kinds, x_values=x, p_count=101))
        columns = [block[name] for block in table for name in CSV_COLUMNS[1:]]
        given = [cells for cells in columns if isinstance(cells, list)]  # mu and x
        assert len(given) == 2 * len(table) and all(type(v) is float for c in given for v in c)
        assert all(cells.dtype == np.float64 for cells in columns if isinstance(cells, np.ndarray))
        reals = np.concatenate([np.asarray(cells, np.float64) for cells in columns])
        assert len(reals) == 32_320
        formatted = []
        monkeypatch.setattr(cli, "repr", lambda v: formatted.append(v) or repr(v), raising=False)
        text = render_csv(table)
        monkeypatch.undo()
        distinct = set(reals.view(np.uint64).tolist())
        assert len(formatted) == len(distinct)
        assert set(np.array(formatted).view(np.uint64).tolist()) == distinct
        assert text == per_cell_csv(table)

    def test_formats_each_signed_zero_once(self, monkeypatch):
        zeros = [0.0, -0.0, 0, np.float64(-0.0), False, np.float32(-0.0)]
        table = [{name: [name] * 6 if name == "channel" else zeros[i:] + zeros[:i]
                  for i, name in enumerate(CSV_COLUMNS)} for _ in range(2)]
        formatted = []
        monkeypatch.setattr(cli, "repr", lambda v: formatted.append(v) or repr(v), raising=False)
        text = render_csv(table)
        monkeypatch.undo()
        assert sorted(map(repr, formatted)) == ["-0.0", "0.0"]
        assert text == per_cell_csv(table)

    def test_sweep_command_builds_no_report_objects(self, monkeypatch, tmp_path):
        from ccrsweep import reports

        built = []

        def counted(*args, **kwargs):
            built.append(args)
            return original(*args, **kwargs)

        original = reports.CCRReport
        monkeypatch.setattr(reports, "CCRReport", counted)
        for fmt in ("csv", "json"):
            argv = ["sweep", "--p-count", "3", "--format", fmt, "--out", str(tmp_path / "t")]
            assert main(argv) == 0
        assert built == []
        ccr_report(ChannelSpec(ChannelKind.ADC, 0.5), 0.5)  # the one-point view builds one
        assert len(built) == 1


class TestVerifyCommand:
    def test_passes_at_default_tolerance(self, capsys):
        cfg = small_config(p_count=6, x_values=(0.5, INV_SQRT2))
        assert verify_command(cfg) == 0
        out = capsys.readouterr().out
        assert "ccr_universal" in out
        assert "FAIL" not in out

    def test_fails_at_impossible_tolerance(self, capsys):
        cfg = small_config(p_count=6, tolerance=1e-16)
        assert verify_command(cfg) == 1
        assert "FAIL" in capsys.readouterr().out

    def test_all_channel_check_names(self, capsys):
        cfg = small_config(channels=tuple(ChannelKind), p_count=3, x_values=(0.5, INV_SQRT2))
        assert verify_command(cfg) == 0
        lines = capsys.readouterr().out.splitlines()
        assert [line.split()[1] for line in lines[:-1]] == [
            "adc_entropy_dominance", "adc_redistribution", "adc_sudden_death",
            "adc_symmetric_columns", "bfc_four_term", "cadc_env_complement",
            "cadc_memoryless_limit", "cadc_redistribution", "ccr_universal",
            "cross_partition_ppt", "dc_terminal_locality", "dilation_kraus_agreement",
            "dilation_norm", "kraus_completeness", "kraus_image_trace", "pdc_nl_sum",
            "pdc_predictability_invariance", "pdc_subtraction", "pfc_coherence_split",
            "pfc_predictability_invariance", "sector_total_consistency", "three_halves",
            "xstate_ppt_consistency",
        ]
        assert lines[-1] == "23/23 checks within tolerance 1e-10"

    #: K_1's weight scaled: 1% too large, its defects FAIL the default
    #: tolerance; 1e-6 too large, they pass a loose one, where the images'
    #: trace once failed as a density check with a traceback
    KRAUS_SCALES = [
        (1.01, [], 1, {"dilation_norm", "kraus_completeness", "kraus_image_trace",
                       "pfc_coherence_split", "pfc_predictability_invariance", "three_halves"},
         "2/8 checks within tolerance 1e-10"),
        (1.000001, ["--tolerance", "1e-3"], 0, set(), "8/8 checks within tolerance 0.001"),
    ]

    def test_an_incomplete_kraus_set_is_reported_not_raised(self, monkeypatch, capsys):
        # a phase flip whose K_1 weight is too large: verify prints a line per
        # check, with its image trace defect as a row, and raises nothing; only
        # the images off trace 1 skip the density check
        weights, matrix = channels._KRAUS_PAIRS[ChannelKind.PFC]
        for scale, tolerance, rc, failing, total in self.KRAUS_SCALES:
            monkeypatch.setitem(channels._KRAUS_PAIRS, ChannelKind.PFC,
                                (lambda p, s=scale: (*weights(p)[:2], s * weights(p)[2]), matrix))
            assert main(["verify", "--channels", "pfc", *tolerance]) == rc
            out, err = capsys.readouterr()
            assert err == ""
            *checks, last = out.splitlines()
            lines = {line.split()[1]: line for line in checks}
            assert all(line.startswith(("PASS", "FAIL")) for line in checks)
            assert {name for name, line in lines.items() if line.startswith("FAIL")} == failing
            defect = 2.0 * (scale - 1.0) + (scale - 1.0) ** 2  # |K_1|^2's at p = 1
            for name, at in (("kraus_completeness", "pfc p=1 mu=0"),
                             ("kraus_image_trace", "pfc p=1 mu=0 x=0.707107")):
                worst = float(lines[name].split("worst ")[1].split()[0])
                assert worst == pytest.approx(defect, rel=1e-3), name
                assert lines[name].endswith(f"at {at}"), name
            assert last == total

    def test_channel_filter_limits_checks(self, capsys):
        cfg = small_config(channels=(ChannelKind.PFC,), p_count=6)
        assert verify_command(cfg) == 0
        out = capsys.readouterr().out
        assert "pfc_coherence_split" in out
        assert "adc_redistribution" not in out
        assert "cross_partition_ppt" not in out

    def test_rows_outside_their_domain_on_every_block_stay_untracked(self, capsys):
        # no balanced x and no p = 1: the ADC closed-form columns, the DC
        # terminal point and the DC 3/2 relation have no point to check
        assert main(["verify", "--channels", "adc,dc", "--x", "0.5", "--p-stop", "0.9"]) == 0
        lines = capsys.readouterr().out.splitlines()
        checked = [line.split()[1] for line in lines[:-1] if line.startswith("PASS")]
        assert "adc_entropy_dominance" in checked
        assert [line.split()[1] for line in lines if line.startswith("SKIP")] == [
            "adc_symmetric_columns", "dc_terminal_locality", "three_halves"]
        assert lines[-1] == f"{len(checked)}/{len(checked)} checks within tolerance 1e-10"

    @pytest.mark.parametrize("argv, skipped, checks", [
        (["--x", "0.999"], ["adc_symmetric_columns"], 22),  # no x = 1/sqrt(2)
        (["--p-start", "0.2", "--p-stop", "0.3"], ["dc_terminal_locality"], 22),  # no p = 1
        # bpfc's 3/2 relation holds at x = 1/sqrt(2) only, pfc's at every x
        (["--channels", "bpfc", "--x", "0.2"], ["three_halves"], 5),
        (["--channels", "pfc,bpfc", "--x", "0.2"], [], 8),
    ], ids=["no_balanced_x", "no_p_of_one", "bpfc_off_balance", "pfc_beside_bpfc"])
    def test_a_check_without_grid_points_is_named_as_skipped(self, capsys, argv, skipped, checks):
        assert main(["verify", *argv]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert [line for line in lines if line.startswith("SKIP")] == [
            f"SKIP  {name:<32} no grid point in its domain" for name in skipped]
        assert any(line.startswith("PASS  three_halves ") for line in lines) is (
            "three_halves" not in skipped)
        assert [line.split()[1] for line in lines[:-1]] == sorted(
            line.split()[1] for line in lines[:-1])
        assert lines[-1] == f"{checks}/{checks} checks within tolerance 1e-10"  # skips not counted

    def test_a_skip_leaves_a_failure_failing(self, capsys):
        assert main(["verify", "--channels", "dc", "--p-stop", "0.5", "--tolerance", "1e-17"]) == 1
        out = capsys.readouterr().out
        assert "SKIP  dc_terminal_locality " in out
        assert "FAIL" in out

    def test_identities_of_another_memory_weight_are_not_skipped(self, capsys):
        # the CADC identities hold for the fully correlated map only, so at
        # mu = 0 they do not apply and no grid can reach them
        assert main(["verify", "--channels", "cadc", "--mu", "0"]) == 0
        out = capsys.readouterr().out
        assert "SKIP" not in out
        assert "cadc_redistribution" not in out


class Placed:
    """A coordinate entry that records when the tracker formats it."""

    def __init__(self, log, i):
        self.log, self.i = log, i

    def __format__(self, spec: str) -> str:
        self.log(self.i)
        return f"{self.i}"


class TestTracker:
    def test_first_max_wins_and_only_the_winner_is_placed(self):
        placed = []
        rows = [Placed(placed.append, i) for i in range(4)]
        t = _Tracker()
        t.track("c", [0.1, 0.3, 0.3, 0.2], ChannelKind.ADC, row=rows)
        assert t.worst["c"] == (0.3, "adc row=1")
        t.track("c", np.array([0.3]), ChannelKind.ADC, row=rows[:1])  # a tie keeps the first
        assert t.worst["c"] == (0.3, "adc row=1")
        t.track("c", [0.5, 0.4], ChannelKind.PDC, row=rows[2:], mu=0.5, x=np.array([0.25, 1.0]))
        assert t.worst["c"] == (0.5, "pdc row=2 mu=0.5 x=0.25")  # in the order given
        assert placed == [1, 2]

    def test_nan_ranks_as_the_worst_value(self):
        t = _Tracker()
        t.track("c", [1e-16], ChannelKind.ADC, p=0.5)
        t.track("c", [0.5, np.nan, np.nan], ChannelKind.PFC, p=np.array([0.1, 0.2, 0.3]))
        t.track("c", [np.inf], ChannelKind.DC, p=1.0)
        value, where = t.worst["c"]
        assert math.isnan(value) and where == "pfc p=0.2"

    def test_empty_array_records_nothing(self):
        t = _Tracker()
        t.track("c", np.array([]), ChannelKind.ADC, p=np.array([]),
                mu=Placed(pytest.fail, "an empty array was placed"))
        assert t.worst == {}


@pytest.mark.parametrize("kind", [k for k in ChannelKind if k.n_system_qubits == 2])
@pytest.mark.parametrize("x", [0.0, 0.3, INV_SQRT2, 1.0])
def test_state_columns_match_the_per_point_route(kind, x):
    # the rows that read the PPT minima and the sectors; reference: each
    # dilated state as a DensityOperator, its pairs by partial_trace, PPT by
    # a transpose written here and an eigensolve per matrix
    mu = 1.0 if kind is ChannelKind.CADC else 0.0
    ps = np.array([0.0, 0.15, 0.5, 0.85, 1.0])
    m, amplitudes, layout, ppt_min = _block_columns(kind, mu, x, ps)
    # the block as verify's rows read it
    m = {**m, "ppt_min": ppt_min, "sectors": measures._sectors(amplitudes, len(layout.labels))}
    residuals = {name: cli.ROWS[name].residual(m) for name in (
        "xstate_ppt_consistency", "cross_partition_ppt", "sector_total_consistency")}
    for i, psi in enumerate(amplitudes):
        rho_g = outer(psi, layout)
        cc_abe = correlated_coherence_hs(rho_g, ("A", "B", "E_A", "E_B"))
        assert abs(m["Cc_ABE"][i] - cc_abe) <= 1e-14
        rho_ab = partial_trace(rho_g, PAIRS["AB"])
        entangled_but_ppt = m["concurrence_AB"][i] > 1e-10 and is_ppt(rho_ab)
        assert residuals["xstate_ppt_consistency"][i] == float(entangled_but_ppt)
        defect = 0.0
        for name in ("AEA", "AEB", "EAEB"):
            # the transpose on the pair's first qubit: (a, b, a', b') -> (a', b, a, b')
            pt = partial_trace(rho_g, PAIRS[name]).mat.reshape(2, 2, 2, 2).transpose(2, 1, 0, 3)
            lam = np.linalg.eigvalsh(pt.reshape(4, 4))[0]
            defect = max(defect, -float(lam))
        assert abs(residuals["cross_partition_ppt"][i] - defect) <= 1e-14
        weights = sector_decomposition(psi, layout)
        total = abs(sum(weights.values()) - hs_coherence(rho_g))
        assert abs(residuals["sector_total_consistency"][i] - total) <= 1e-14
        sector_ab = _sector_columns(m["sectors"])["sector_AB"][i]
        assert abs(sector_ab - weights.get(frozenset(PAIRS["AB"]), 0.0)) <= 1e-14


#: The coordinates each check's location names: every check over an (x, p)
#: grid names both, the Kraus stage's mu too.
LOCATIONS = {
    **{name: ["x", "p"] for name in cli.ROWS},
    **{name: ["p", "mu", "x"] for name in (
        "kraus_image_trace", "dilation_norm", "dilation_kraus_agreement")},
    "kraus_completeness": ["p", "mu"],  # one Kraus set per p
    "cadc_memoryless_limit": ["p"],  # x = 0.5 at mu = 0
    "adc_sudden_death": ["x"],  # the largest p with entanglement, per x
}


@pytest.mark.parametrize("mu", [0.0, 1.0])
def test_every_grid_check_names_its_x_and_its_p(mu):
    t = _Tracker()
    cfg = SweepConfig(mu=mu, p_count=11)
    _verify_blocks(cfg, t)
    _verify_kraus(cfg, t)
    _verify_sudden_death(cfg, t)
    assert t.worst.keys() <= LOCATIONS.keys()
    assert "dilation_norm" in t.worst
    for name, (_, where) in t.worst.items():
        kind, *coords = where.split(" ")
        assert name not in cli.ROWS or ChannelKind(kind) in cli.ROWS[name].kinds
        assert [c.partition("=")[0] for c in coords] == LOCATIONS[name], (name, where)
        assert all(float(c.partition("=")[2]) >= 0.0 for c in coords), (name, where)


@pytest.mark.parametrize("mu", [0.0, 1.0])
def test_a_masked_row_names_an_in_domain_point(monkeypatch, mu):
    # every residual is 1 on every row, so each row's first point wins; a
    # masked row must name the first point of its mask, not of its block
    ones = {name: Identity(row.kinds, lambda m: np.ones(len(m["p"])), row.domain)
            for name, row in cli.ROWS.items()}
    monkeypatch.setattr(cli, "ROWS", ones)
    cfg = SweepConfig(mu=mu)
    t = _Tracker()
    _verify_blocks(cfg, t)
    ps, in_domain, masked = cfg.p_grid(), {}, set()
    for kind, block_mu, xs in _blocks(cfg, set(cfg.x_values) | set(TENTHS)):
        x_rows, p_rows = _rows(xs, ps)
        for name, row in cli.ROWS.items():
            domain = kind in row.kinds and row.domain(kind, block_mu, x_rows, p_rows)
            masked |= {name} if isinstance(domain, np.ndarray) else set()
            for x, p, ok in zip(x_rows, p_rows, np.broadcast_to(domain, len(p_rows))):
                where = f"{kind.value} x={x:g} p={p:g}"
                in_domain[name, where] = in_domain.get((name, where), False) or bool(ok)
    assert {"adc_symmetric_columns", "dc_terminal_locality", "three_halves"} <= masked
    for name, (_, where) in t.worst.items():
        assert in_domain[name, where], (name, where)
    # a block's first row is off these masks
    assert t.worst["dc_terminal_locality"][1].endswith(" p=1")
    assert " x=0.707107 " in t.worst["adc_symmetric_columns"][1]


def test_verify_walk_solves_one_eigen_table_per_two_qubit_block(monkeypatch):
    # the A-B pair's PPT minimum comes from the engine's table, not a re-solve,
    # and the table of a stacked group of x is one call
    calls, qubit_eigenvalues = [], measures._qubit_eigenvalues

    def counted(*args):
        calls.append(1)
        return qubit_eigenvalues(*args)

    for module in (measures, reports):
        monkeypatch.setattr(module, "_qubit_eigenvalues", counted)
    cfg = SweepConfig()
    blocks = [kind for kind, _, _ in _blocks(cfg, set(cfg.x_values) | set(TENTHS))
              if kind.n_system_qubits == 2]
    _verify_blocks(cfg, _Tracker())
    # 13 x in groups of 4, 4, 4 and 1 for adc, cadc and pdc, and bfc's one x
    assert len(calls) == len(blocks) == 3 * 4 + 1


def test_sudden_death_check_dilates_one_stacked_block_per_round(monkeypatch):
    # fifteen rounds, each one block: the five x states, each over its own
    # 17-point bracket
    calls, dilate = [], reports._dilate

    def counted(kraus, psi, sys_layout):  # the p shape of the Kraus tensor (..., nK, d, d)
        calls.append((kraus.shape[:-3], psi.shape))
        return dilate(kraus, psi, sys_layout)

    monkeypatch.setattr(reports, "_dilate", counted)
    t = _Tracker()
    _verify_sudden_death(SweepConfig(), t)
    assert calls == [((5, 17), (5, 4))] * 15
    assert t.worst["adc_sudden_death"][0] <= 1e-15


def test_verify_builds_one_channel_tensor_per_block_and_kraus_stage(monkeypatch):
    # the walk builds each block's tensor once over the p grid, not once per
    # (x, p) row, and the Kraus stage one per (kind, mu), shared by its
    # operator sums and its dilation of both x
    calls, kraus_stack = [], channels._kraus_stack

    def counted(kind, ps, mu):
        calls.append((kind, mu, len(ps)))
        return kraus_stack(kind, ps, mu)

    for module in (channels, cli, reports):  # cli and reports bind the name on import
        monkeypatch.setattr(module, "_kraus_stack", counted)
    cfg = SweepConfig()
    _verify_blocks(cfg, _Tracker())
    blocks = list(_blocks(cfg, set(cfg.x_values) | set(TENTHS)))
    assert len(blocks) == 16  # 4 groups of x for adc, cadc and pdc, one for each other kind
    assert calls == [(kind, mu, 101) for kind, mu, _ in blocks]
    calls.clear()
    _verify_kraus(cfg, _Tracker())
    kind_mu = [(kind, mu) for kind in ChannelKind
               for mu in ((0.0, 0.5, 1.0) if kind is ChannelKind.CADC else (0.0,))]
    # cadc at mu = 0.5 stacks the tensors at mu = 0 and mu = 1, which it builds inside
    inner = {(ChannelKind.CADC, 0.5): [(ChannelKind.CADC, 0.0, 101), (ChannelKind.CADC, 1.0, 101)]}
    assert calls == [call for kind, mu in kind_mu
                     for call in [(kind, mu, 101), *inner.get((kind, mu), [])]]


@pytest.mark.parametrize("kind", list(ChannelKind), ids=lambda kind: kind.value)
def test_verify_blocks_reuse_the_engine_spectra(monkeypatch, kind):
    # verify's checks add no eigen-solve to the engine's: they reuse its
    # cross-pair PPT minima, and the A-B PPT test of an X state is closed-form;
    # the engine itself makes none, for every kind
    calls = []
    eigvalsh = np.linalg.eigvalsh

    def counted(*args, **kwargs):
        calls.append(1)
        return eigvalsh(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", counted)
    cfg = small_config(channels=(kind,), p_count=5)
    groups = list(_blocks(cfg, set(cfg.x_values) | set(TENTHS)))
    assert len(groups) == 1  # the 11 x of 5 p, or bfc's one x, fit one block
    for _, mu, xs in groups:
        _block_columns(kind, mu, xs, cfg.p_grid())
    engine = len(calls)
    calls.clear()
    _verify_blocks(cfg, _Tracker())
    assert len(calls) == engine == 0


def spy_on_rows(monkeypatch, domain=None) -> list:
    """Replace cli.ROWS by rows that record the name, the residual's shape and
    the block's row shape of each residual they evaluate; a given ``domain``
    replaces every row's."""
    evaluated = []

    def spied(name, row):
        def residual(m):
            r = row.residual(m)
            evaluated.append((name, np.shape(r), m["p"].shape))
            return r
        return Identity(row.kinds, residual, domain or row.domain)

    monkeypatch.setattr(cli, "ROWS", {name: spied(name, row) for name, row in cli.ROWS.items()})
    return evaluated


@pytest.mark.parametrize("mu", [0.0, 1.0])
def test_every_row_residual_spans_its_block(monkeypatch, mu):
    # a row's residual is indexed by its domain mask as it is, never
    # broadcast: on every block of the default walk it has one value per row
    evaluated = spy_on_rows(monkeypatch, domain=lambda kind, mu, x, p: True)
    _verify_blocks(SweepConfig(mu=mu), _Tracker())
    assert {name for name, _, _ in evaluated} == set(cli.ROWS)
    assert all(shape == rows for _, shape, rows in evaluated)


def test_verify_blocks_evaluate_a_row_only_where_it_applies(monkeypatch):
    # the cadc identities hold at mu = 1 only: at mu = 0 their domain is a
    # plain False, so their residuals are not evaluated and they do not apply
    evaluated = spy_on_rows(monkeypatch)
    applied = _verify_blocks(small_config(channels=(ChannelKind.CADC,), mu=0.0), _Tracker())
    assert applied == {name for name, _, _ in evaluated} == {
        "ccr_universal", "sector_total_consistency", "xstate_ppt_consistency"}


@pytest.mark.parametrize("mu", [0.0, 1.0])
def test_every_masked_row_has_a_point_on_the_default_grid(mu):
    # a row whose domain is a mask applies to its kind at any grid, and is
    # SKIPped where the grid misses the mask; the default walk reaches each
    cfg = SweepConfig(mu=mu)
    ps, reached = cfg.p_grid(), {}
    for kind, block_mu, xs in _blocks(cfg, set(cfg.x_values) | set(TENTHS)):
        for name, row in cli.ROWS.items():
            domain = kind in row.kinds and row.domain(kind, block_mu, *cli._rows(xs, ps))
            if isinstance(domain, np.ndarray):
                reached[name, kind] = reached.get((name, kind), False) or bool(domain.any())
    assert {("adc_symmetric_columns", ChannelKind.ADC), ("dc_terminal_locality", ChannelKind.DC),
            ("three_halves", ChannelKind.BPFC), ("three_halves", ChannelKind.DC)} <= reached.keys()
    assert all(reached.values()), reached


KIND_MU = [(kind, mu) for kind in ChannelKind
           for mu in ((0.0, 1.0) if kind is ChannelKind.CADC else (0.0,))]


@pytest.mark.parametrize("p_count", [101, 11, 1001, None],
                         ids=["default", "p11", "p1001", "cut-at-budget"])
@pytest.mark.parametrize("kind, mu", KIND_MU,
                         ids=lambda v: getattr(v, "value", f"mu={v}"))
def test_stacked_groups_equal_the_per_x_blocks_bytewise(kind, mu, p_count):
    # every engine stage works per row, so a row's bytes do not depend on the
    # x stacked beside it; the per-x blocks are the reference
    amplitudes_per_row = 4**kind.n_system_qubits
    if p_count is None:  # groups of four x that fill the budget exactly
        p_count = _BLOCK_AMPLITUDES // (4 * amplitudes_per_row)
    cfg = SweepConfig(channels=(kind,), mu=mu, p_count=p_count)
    ps = cfg.p_grid()
    n = len(ps)
    groups = [xs for _, _, xs in _blocks(cfg, set(cfg.x_values) | set(TENTHS))]
    if 4 * n * amplitudes_per_row == _BLOCK_AMPLITUDES and kind is not ChannelKind.BFC:
        assert [len(xs) for xs in groups] == [4, 4, 4, 1]
    for xs in groups:
        m, amplitudes, layout, ppt_min = _block_columns(kind, mu, xs, ps)
        for i, x in enumerate(xs):
            rows = slice(i * n, (i + 1) * n)
            ref, ref_amplitudes, _, ref_min = _block_columns(kind, mu, x, ps)
            assert m.keys() == ref.keys()
            for name, column in ref.items():  # the *_initial columns span the rows
                assert np.broadcast_to(column, n).tobytes() == m[name][rows].tobytes(), name
            assert ref_amplitudes.tobytes() == amplitudes[rows].tobytes()
            assert ref_min.tobytes() == ppt_min[:, rows].tobytes()
            if kind.n_system_qubits == 2:
                sectors = measures._sectors(amplitudes[rows], len(layout.labels))
                assert sectors.tobytes() == measures._sectors(
                    ref_amplitudes, len(layout.labels)).tobytes()


#: Two-qubit rows of 16 amplitudes that fill the budget.
TWO_QUBIT_ROWS = _BLOCK_AMPLITUDES // 16


@pytest.mark.parametrize("p_count", [2, 3, 11, 101, TWO_QUBIT_ROWS // 4 - 1, TWO_QUBIT_ROWS // 4,
                                     TWO_QUBIT_ROWS // 4 + 1, TWO_QUBIT_ROWS, TWO_QUBIT_ROWS + 1,
                                     1001, MAX_P_COUNT])
def test_blocks_stay_within_the_row_budget(p_count):
    # ascending groups of whole x, as large as the amplitude budget allows,
    # and a single x over the budget alone: a two-qubit row holds 16
    # amplitudes, a one-qubit row 4
    cfg = SweepConfig(p_count=p_count)
    x_values = set(cfg.x_values) | set(TENTHS)
    groups = list(_blocks(cfg, x_values))
    for kind in cfg.channels:
        xs = [xs for k, _, xs in groups if k is kind]
        assert np.concatenate(xs).tolist() == (
            [BALANCED_X] if kind is ChannelKind.BFC else sorted(x_values))
        amplitudes = p_count * 4**kind.n_system_qubits  # per x
        for group in xs:
            assert len(group) * amplitudes <= _BLOCK_AMPLITUDES or len(group) == 1
        for group in xs[:-1]:
            assert (len(group) + 1) * amplitudes > _BLOCK_AMPLITUDES
    if p_count == 101:  # the default walk: 13 x in groups of 4, 4, 4, 1 for two qubits
        assert [len(xs) for _, _, xs in groups] == [4, 4, 4, 1] * 3 + [1] + [13] * 3


@pytest.mark.parametrize("p_count", [2, 101, 1001])
@pytest.mark.parametrize("kind, mu", [(kind, 0.0) for kind in ChannelKind]
                         + [(ChannelKind.CADC, 0.5), (ChannelKind.CADC, 1.0)],
                         ids=lambda v: v.value if isinstance(v, ChannelKind) else f"mu{v}")
def test_kraus_images_are_density_matrices(kind, mu, p_count):
    # verify's Kraus stage checks no image: sum K rho K^dag of a complete set
    # is Hermitian, positive semidefinite and of unit trace by construction,
    # which this keeps asserting for both of the stage's initial states
    ps = np.linspace(0.0, 1.0, p_count)
    psi, _ = reports._initial_state(kind, np.array([0.5, BALANCED_X]))
    rhos = psi[:, :, np.newaxis] * psi[:, np.newaxis, :].conj()
    _, images = channels._operator_sums(channels._kraus_stack(kind, ps, mu), rhos)
    assert images.shape == (2, p_count, *rhos.shape[1:])
    check_density(images)


@pytest.mark.parametrize("kind", list(ChannelKind), ids=lambda kind: kind.value)
def test_verify_kraus_stage_makes_no_eigen_solve(monkeypatch, kind):
    # the images are density matrices by construction (the test above), so
    # the stage solves no spectrum and builds no DensityOperator at any p count
    from ccrsweep import linalg

    counts = {}

    def counted(name, fn):
        def call(*args, **kwargs):
            counts[name] = counts.get(name, 0) + 1
            return fn(*args, **kwargs)
        return call

    monkeypatch.setattr(np.linalg, "eigvalsh", counted("eigvalsh", np.linalg.eigvalsh))
    monkeypatch.setattr(linalg.DensityOperator, "__post_init__",
                        counted("density_operator", linalg.DensityOperator.__post_init__))
    for p_count in (2, 101, 1001):
        t = _Tracker()
        _verify_kraus(small_config(channels=(kind,), p_count=p_count), t)
        assert "kraus_image_trace" in t.worst  # the stage made its images
    assert counts == {}


class TestMain:
    def test_sweep_end_to_end(self, tmp_path):
        out = tmp_path / "rows.csv"
        rc = main([
            "sweep", "--channels", "adc", "--x", "0.5",
            "--p-start", "0", "--p-stop", "1", "--p-count", "3",
            "--format", "csv", "--out", str(out),
        ])
        assert rc == 0
        assert len(out.read_text().splitlines()) == 4

    def test_sweep_requires_output_path(self, capsys):
        assert main(["sweep", "--channels", "adc"]) == 2
        assert "out" in capsys.readouterr().err

    def test_bad_channel_name(self, tmp_path, capsys):
        # argparse only collects the text; the option's parser rejects it
        assert main(["sweep", "--channels", "warp", "--out", str(tmp_path / "x.csv")]) == 2
        assert capsys.readouterr().err == ("ccrsweep: configuration error: channels: unknown "
                                           "channel 'warp' (choose from adc,cadc,pdc,bfc,pfc,bpfc,dc)\n")

    @pytest.mark.parametrize(
        "flag, value, message",
        [
            ("--channels", "adc,warp",
             "channels: unknown channel 'warp' (choose from adc,cadc,pdc,bfc,pfc,bpfc,dc)"),
            ("--x", "0.5,abc", "x: could not convert string to float: 'abc'"),
        ],
    )
    def test_bad_list_token_named(self, tmp_path, capsys, flag, value, message):
        assert main(["sweep", flag, value, "--out", str(tmp_path / "x.csv")]) == 2
        assert capsys.readouterr().err == f"ccrsweep: configuration error: {message}\n"

    def test_empty_p_interval_is_config_error(self, tmp_path, capsys):
        out = tmp_path / "rows.csv"
        argv = ["sweep", "--p-start", "0.5", "--p-stop", "0.5", "--p-count", "3",
                "--out", str(out)]
        assert main(argv) == 2
        assert "p_start/p_stop" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("tolerance", ["1", "inf"])
    def test_tolerance_at_least_one_is_config_error(self, capsys, tolerance):
        assert main(["verify", "--channels", "pfc", "--tolerance", tolerance]) == 2
        assert "tolerance" in capsys.readouterr().err

    def test_verify_loose_tolerance_passes(self, capsys):
        # the PPT threshold is fixed; a looser residual bound must not fail it
        argv = ["verify", "--channels", "adc,cadc", "--x", "0.5", "--p-count", "11",
                "--tolerance", "0.3"]
        assert main(argv) == 0
        assert "PASS  xstate_ppt_consistency" in capsys.readouterr().out

    def test_unwritable_path(self, capsys):
        rc = main([
            "sweep", "--channels", "pfc", "--x", "0.5", "--p-count", "3",
            "--out", "/nonexistent-dir/rows.csv",
        ])
        assert rc == 1

    def test_verify_exit_codes(self):
        base = ["verify", "--channels", "pfc", "--x", "0.5", "--p-count", "4"]
        assert main(base) == 0
        assert main(base + ["--tolerance", "1e-16"]) == 1

    def test_verify_memoryless_correlated_damping(self, capsys):
        argv = ["verify", "--channels", "cadc", "--mu", "0", "--x", "0.5", "--p-count", "5"]
        assert main(argv) == 0
        assert "cadc_redistribution" not in capsys.readouterr().out

    def test_cadc_memoryless_limit_catches_wrong_damping(self, monkeypatch, capsys):
        # Damping with probability p^2 instead of p changes ADC and CADC alike,
        # so only the closed-form reference can notice it.
        from ccrsweep import channels

        weights, matrix = channels._KRAUS_PAIRS[ChannelKind.ADC]
        for kind in (ChannelKind.ADC, ChannelKind.CADC):
            monkeypatch.setitem(channels._KRAUS_PAIRS, kind, (lambda p: weights(p * p), matrix))
        argv = ["verify", "--channels", "cadc", "--mu", "0", "--x", "0.5", "--p-count", "5"]
        assert main(argv) == 1
        assert "FAIL  cadc_memoryless_limit" in capsys.readouterr().out

    @pytest.mark.parametrize("command", ["sweep", "verify"])
    @pytest.mark.parametrize(
        "x, message",
        [("", "x: must name at least one value"), ("0.5,0.5", "x: duplicate value 0.5")],
    )
    def test_bad_x_list_is_config_error(self, tmp_path, capsys, command, x, message):
        argv = [command, "--channels", "adc", "--x", x]
        if command == "sweep":
            argv += ["--out", str(tmp_path / "rows.csv")]
        assert main(argv) == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "rows.csv").exists()

    @pytest.mark.parametrize("command", ["sweep", "verify"])
    @pytest.mark.parametrize("channels", ["adc,adc", "adc,ADC"])
    def test_duplicate_channels_is_config_error(self, tmp_path, capsys, command, channels):
        argv = [command, "--channels", channels, "--x", "0.5", "--p-count", "2"]
        if command == "sweep":
            argv += ["--out", str(tmp_path / "rows.csv")]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert "configuration error: channels: duplicate channel adc" in err
        assert not (tmp_path / "rows.csv").exists()

    def test_config_file_with_flag_override(self, tmp_path, capsys):
        cfg_file = tmp_path / "sweep.cfg"
        cfg_file.write_text(
            "# grid\nchannels=pfc\nx=0.5\np_start=0\np_stop=1\np_count=3\nformat=json\n"
            f"out={tmp_path / 'from_file.json'}\n"
        )
        rc = main(["sweep", "--config", str(cfg_file)])
        assert rc == 0
        rows = json.loads((tmp_path / "from_file.json").read_text())
        assert len(rows) == 3

        override = tmp_path / "override.json"
        rc = main(["sweep", "--config", str(cfg_file), "--p-count", "5", "--out", str(override)])
        assert rc == 0
        assert len(json.loads(override.read_text())) == 5

    def test_config_file_unknown_key(self, tmp_path, capsys):
        cfg_file = tmp_path / "bad.cfg"
        cfg_file.write_text("chanels=adc\n")
        assert main(["verify", "--config", str(cfg_file)]) == 2
        assert "unknown keys" in capsys.readouterr().err

    def test_config_file_bad_line(self, tmp_path, capsys):
        cfg_file = tmp_path / "bad.cfg"
        cfg_file.write_text("just some text\n")
        assert main(["verify", "--config", str(cfg_file)]) == 2

    @pytest.mark.parametrize("line, message", [
        ("p_count=abc", "error: p_count: invalid literal for int() with base 10: 'abc'"),
        ("mu=x", "error: mu: could not convert string to float: 'x'"),
        # the list parsers name their key already; it is not named twice
        ("x=0.5,abc", "error: x: could not convert string to float: 'abc'"),
        ("channels=adc,warp", "error: channels: unknown channel 'warp'"),
        ("channels=pdc, PDC", "error: channels: duplicate channel pdc"),
    ], ids=["p_count", "mu", "x", "channels", "channels-duplicate"])
    def test_config_file_bad_value_names_its_key(self, tmp_path, capsys, line, message):
        cfg_file = tmp_path / "bad.cfg"
        cfg_file.write_text(line + "\n")
        assert main(["verify", "--config", str(cfg_file)]) == 2
        assert message in capsys.readouterr().err

    def test_config_file_repeated_key(self, tmp_path, capsys):
        cfg_file = tmp_path / "twice.cfg"
        cfg_file.write_text("channels=pfc\np_count=3\n# again\np_count=5\n")
        out = tmp_path / "rows.csv"
        assert main(["sweep", "--config", str(cfg_file), "--out", str(out)]) == 2
        assert f"{cfg_file}:4: key 'p_count' given twice" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command, flags", [
        ("sweep", ["--x", "0.5", "--x", "0.6"]),
        ("sweep", ["--format", "csv", "--format", "json"]),
        ("verify", ["--p-count", "3", "--p-count", "5"]),
    ], ids=["x", "format", "p_count"])
    def test_repeated_flag(self, tmp_path, capsys, command, flags):
        out = tmp_path / "rows.csv"
        argv = [command, "--channels", "pfc", *flags]
        if command == "sweep":
            argv += ["--out", str(out)]
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert f"argument {flags[0]}: given twice" in capsys.readouterr().err
        assert not out.exists()


class TestRealsAsTyped:
    """Every real option goes through one parser, which rejects nonzero text
    that float64 rounds to 0.0 instead of running at zero."""

    #: (command, flag, config key) of every real option
    REALS = [("sweep", "--x", "x"), ("sweep", "--p-start", "p_start"),
             ("sweep", "--p-stop", "p_stop"), ("sweep", "--mu", "mu"),
             ("verify", "--tolerance", "tolerance")]
    IDS = [key for *_, key in REALS]

    @pytest.mark.parametrize("joined", [True, False], ids=["flag=text", "flag_text"])
    @pytest.mark.parametrize("text", ["1e-400", "-1e-400", "0.5e-330", "1_0e-400", "\u0661e-400"])
    @pytest.mark.parametrize("command, flag, key", REALS, ids=IDS)
    def test_an_underflowing_flag_is_rejected_by_name(self, tmp_path, capsys,
                                                        command, flag, key, text, joined):
        # "--p-stop -1e-400" too: any text float() reads is a value, not a flag
        out = tmp_path / "rows.csv"
        argv = [command, "--channels", "cadc", *([f"{flag}={text}"] if joined else [flag, text])]
        assert main(argv + ["--out", str(out)] if command == "sweep" else argv) == 2
        assert capsys.readouterr().err == (
            f"ccrsweep: configuration error: {key}: {text!r} is nonzero but rounds to 0.0 in float64\n")
        assert not out.exists()

    @pytest.mark.parametrize("command, flag, key", REALS, ids=IDS)
    def test_an_underflowing_config_value_is_rejected_by_name(self, tmp_path, capsys,
                                                              command, flag, key):
        cfg_file = tmp_path / "tiny.cfg"
        cfg_file.write_text(f"channels=cadc\n{key}=1e-400\n")
        out = tmp_path / "rows.csv"
        argv = [command, "--config", str(cfg_file)]
        assert main(argv + ["--out", str(out)] if command == "sweep" else argv) == 2
        assert f"error: {key}: '1e-400' is nonzero but rounds to 0.0" in capsys.readouterr().err
        assert not out.exists()

    def test_an_underflowing_list_token_is_named_as_typed(self, tmp_path, capsys):
        assert main(["sweep", "--x", "0.5, 1e-400", "--out", str(tmp_path / "x.csv")]) == 2
        assert capsys.readouterr().err == (
            "ccrsweep: configuration error: x: ' 1e-400' is nonzero but rounds to 0.0 in float64\n")

    @pytest.mark.parametrize("text", ["0", "0e5", "-0.0", "0.000", " 0 ", "0e-400", "\u0660"])
    @pytest.mark.parametrize("key", IDS)
    def test_typed_zeros_are_zeros(self, key, text):
        parse = cli._OPTIONS[key][1]
        value = parse(text)[0] if key == "x" else parse(text)
        assert value == 0.0 and math.copysign(1.0, value) == math.copysign(1.0, float(text))

    @pytest.mark.parametrize("flag, text", [("--x", "0e5"), ("--x", "-0.0"), ("--p-start", "0e5"),
                                            ("--mu", "-0.0"), ("--mu", "0")])
    def test_a_typed_zero_sweeps(self, tmp_path, flag, text):
        out = tmp_path / "rows.csv"
        argv = ["sweep", "--channels", "cadc", "--p-count", "3", f"{flag}={text}", "--out", str(out)]
        assert main(argv) == 0
        assert len(out.read_text().splitlines()) == 1 + 3 * (1 if flag == "--x" else len(DEFAULT_X))

    @pytest.mark.parametrize("key, text", [("p_start", "0.25"), ("mu", "1"), ("tolerance", "1e-300"),
                                           ("p_stop", "5e-324")])
    def test_nonzero_reals_parse_as_float(self, key, text):
        assert cli._OPTIONS[key][1](text) == float(text) != 0.0

    @pytest.mark.parametrize("key", IDS)
    def test_text_float_rejects_is_named(self, key):
        # the parser gives float()'s reason, and build_config names the key once
        with pytest.raises(ValueError, match="^could not convert string to float: 'abc'$"):
            cli._OPTIONS[key][1]("abc")
        args = argparse.Namespace(**{**dict.fromkeys(cli._OPTIONS), "config": None, key: "abc"})
        with pytest.raises(ValueError, match=f"^{key}: could not convert string to float: 'abc'$"):
            build_config(args)

    def test_a_negative_zero_in_exponent_form_sweeps_from_zero(self, tmp_path):
        # fails if argparse takes "-0e0" for a flag again (its own pattern
        # reads only -1 and -.5 forms as negative numbers)
        out = tmp_path / "rows.csv"
        argv = ["sweep", "--channels", "adc", "--x", "0.5", "--p-count", "3", "--p-start", "-0e0"]
        assert main(argv + ["--out", str(out)]) == 0
        rows = out.read_text().splitlines()[1:]
        assert [float(row.split(",")[3]) for row in rows] == [0.0, 0.5, 1.0]

    @pytest.mark.parametrize("argv, message", [
        (["sweep", "--mu", "-1e0"], "mu: must lie in [0, 1], got -1.0"),
        (["sweep", "--mu", "-inf"], "mu: must lie in [0, 1], got -inf"),
        (["sweep", "--p-start", "-5E-1"], "p_start/p_stop: need 0 <= start < stop <= 1, got -0.5, 1.0"),
        (["verify", "--tolerance", "-1e-3"],
         "tolerance: must lie strictly between 0 and 1, got -0.001"),
    ], ids=["mu", "mu-inf", "p_start", "tolerance"])
    def test_a_negative_real_in_any_float_spelling_reaches_its_range_check(self, tmp_path, capsys,
                                                                           argv, message):
        out = tmp_path / "rows.csv"
        assert main(argv + ["--out", str(out)] if argv[0] == "sweep" else argv) == 2
        assert capsys.readouterr().err == f"ccrsweep: configuration error: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize("text, negative", [
        ("-1e-400", True), ("-0e0", True), ("-inf", True), ("-nan", True), ("-1_0", True),
        ("-\u0661", True), ("-.5", True), ("--x", False), ("-h", False), ("-", False), ("-1e", False),
    ])
    def test_negative_number_test_is_float(self, text, negative):
        assert cli._NegativeNumber.match(text) is negative


def flag_of(key: str) -> str:
    return "--" + key.replace("_", "-")


#: A bad text per option besides the empty text, which is bad for every one
BAD_TEXTS = {"channels": "adc,warp", "x": "0.5,abc", "p_start": "-1e-400", "p_stop": "1_0e-400",
             "p_count": "2.5", "mu": "-1e0", "format": "xml", "tolerance": "-1e-3"}


class TestOptionTable:
    """Each option is one row of cli._OPTIONS: its flag and its config-file
    key share one parser and so one error line."""

    CASES = [(key, command, text) for key, (_, _, commands, _) in cli._OPTIONS.items()
             for command in commands for text in dict.fromkeys(["", BAD_TEXTS.get(key, "")])]

    @pytest.mark.parametrize("key, command, text", CASES,
                             ids=[f"{key}-{command}-{text!r}" for key, command, text in CASES])
    def test_a_bad_value_reads_the_same_from_a_flag_and_a_file(self, tmp_path, capsys,
                                                                key, command, text):
        cfg_file = tmp_path / "bad.cfg"
        cfg_file.write_text(f"{key}={text}\n", encoding="utf-8")
        errs = []
        for argv in ([command, flag_of(key), text], [command, "--config", str(cfg_file)]):
            assert main(argv) == 2
            errs.append(capsys.readouterr().err)
        assert errs[0] == errs[1]
        assert errs[0].startswith(f"ccrsweep: configuration error: {key}: ")
        assert errs[0].count("\n") == 1 and errs[0].endswith("\n")

    #: A good text per option, so that only the flag's spelling can fail
    GOOD_TEXTS = {"channels": "pfc", "x": "0.5", "p_start": "0", "p_stop": "1", "p_count": "3",
                  "mu": "0", "format": "csv", "out": "rows.csv", "tolerance": "1e-3"}
    #: Each row with a shorter form of its flag (--x has none), per command
    ROWS = [(key, command) for key, (_, _, commands, _) in cli._OPTIONS.items()
            for command in commands if len(flag_of(key)) > 3]

    @pytest.mark.parametrize("key, command", ROWS, ids=[f"{key}-{command}" for key, command in ROWS])
    def test_a_flag_is_taken_only_in_full(self, tmp_path, monkeypatch, capsys, key, command):
        # as a config-file key is: a prefix of a flag is an unknown argument
        monkeypatch.chdir(tmp_path)
        flag = flag_of(key)
        for prefix in (flag[:n] for n in range(3, len(flag))):
            argv = [command, prefix, self.GOOD_TEXTS[key]]
            with pytest.raises(SystemExit) as exc:
                main(argv + (["--out", "rows.csv"] if command == "sweep" and key != "out" else []))
            assert exc.value.code == 2, prefix
            assert f"unrecognized arguments: {prefix} " in capsys.readouterr().err, prefix
        assert not (tmp_path / "rows.csv").exists()

    @pytest.mark.parametrize("command", ["sweep", "verify"])
    def test_help_lists_the_flags_of_the_command_rows(self, capsys, command):
        with pytest.raises(SystemExit) as exc:
            main([command, "--help"])
        assert exc.value.code == 0
        rows = {flag_of(key) for key, (*_, commands, _) in cli._OPTIONS.items() if command in commands}
        assert set(re.findall(r"--[a-z][a-z-]*", capsys.readouterr().out)) == rows | {
            "--config", "--help"}

    def test_each_row_sets_its_own_config_field(self):
        fields = [field for field, *_ in cli._OPTIONS.values()]
        assert sorted(fields) == sorted(f.name for f in dataclasses.fields(SweepConfig))

    def test_the_command_line_surface(self):
        # the config-file keys, and the commands whose flags they are
        grid = ("sweep", "verify")
        assert {key: commands for key, (_, _, commands, _) in cli._OPTIONS.items()} == {
            "channels": grid, "x": grid, "p_start": grid, "p_stop": grid, "p_count": grid,
            "mu": grid, "format": ("sweep",), "out": ("sweep",), "tolerance": ("verify",)}


class TestBuildConfigDefaults:
    def test_defaults(self):
        cfg = build_config(argparse.Namespace(config=None, **dict.fromkeys(cli._OPTIONS)))
        assert cfg.channels == tuple(ChannelKind)
        assert cfg.x_values == DEFAULT_X
        assert cfg.p_count == 101
        assert cfg.mu == 1.0
        assert cfg.fmt == "csv"
        assert cfg.tolerance == 1e-10


def count_sector_decompositions(monkeypatch) -> list:
    # counts the sector kernel, which the engine's readers call unchecked and
    # the public sector_decomposition calls after its checks
    from ccrsweep import cli, measures, reports

    calls = []
    kernel = measures._sectors

    def counted(*args):
        calls.append(1)
        return kernel(*args)

    for module in (cli, measures, reports):  # each binds the name
        monkeypatch.setattr(module, "_sectors", counted)
    return calls


def test_sweep_decomposes_no_block_into_sectors(monkeypatch):
    # no CSV or JSON column reads a sector weight
    calls = count_sector_decompositions(monkeypatch)
    assert len(sweep_table(SweepConfig())) == 31
    assert calls == []


def test_verify_walk_decomposes_each_block_into_sectors_once(monkeypatch):
    # verify decomposes each two-qubit block once, for its sector total and,
    # for phase damping, the sector columns of pdc_nl_sum
    calls = count_sector_decompositions(monkeypatch)
    _verify_blocks(SweepConfig(), _Tracker())
    # one per stacked two-qubit group: 13 x values (the grid's and every
    # tenth) in groups of 4, 4, 4 and 1 for adc, cadc and pdc, and
    # x = 1/sqrt(2) for bfc
    assert len(calls) == 3 * 4 + 1


def test_verify_builds_no_channel_specs_or_kraus_sets(monkeypatch):
    # a block is (kind, mu, x) over the p grid, and the Kraus cross-check
    # takes each (kind, mu) block's operators as one stack: there is no
    # per-point Kraus set to build
    built = []

    def counted(cls):
        init = cls.__post_init__

        def call(self):
            built.append(self)
            init(self)
        monkeypatch.setattr(cls, "__post_init__", call)

    counted(ChannelSpec)
    assert len(sweep_table(SweepConfig())) == 31
    assert verify_command(SweepConfig()) == 0
    assert built == []
