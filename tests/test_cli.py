import json
import math

import numpy as np
import pytest

from ccrsweep.channels import ChannelKind, ChannelSpec
from ccrsweep.linalg import outer, partial_trace
from ccrsweep.measures import correlated_coherence_hs, is_ppt, sector_decomposition
from ccrsweep.reports import (
    APPLICABLE_IDENTITIES,
    BALANCED_X,
    IDENTITIES,
    PAIRS,
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
    SweepConfig,
    _blocks,
    _state_columns,
    _Tracker,
    _verify_blocks,
    _verify_kraus,
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

    def test_x_nonempty(self):
        with pytest.raises(ValueError, match="x: must name at least one value"):
            small_config(x_values=())

    def test_x_duplicates_rejected(self):
        with pytest.raises(ValueError, match="x: duplicate value 0.5"):
            small_config(x_values=(0.2, 0.5, 0.5))

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
            x, m, amplitudes, layout, *_ = _block_columns(kind, mu, x, ps)
            if kind is ChannelKind.PDC:  # the columns of pdc_nl_sum
                m.update(_sector_columns(sector_decomposition(amplitudes, layout), len(ps)))
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

    def test_renders_signed_zeros_nan_and_mixed_types_byte_for_byte(self):
        # the memo of formatted reals must not key a zero by its value, or
        # -0.0 after 0.0 (or 0 after -0.0) takes the other's text
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
            assert block["p"] == [0.0, 0.5, 1.0]

    def test_empty_table_renders_as_empty_json_array(self):
        assert render_json([]) == json.dumps([], indent=2) + "\n"
        assert render_csv([]) == ",".join(CSV_COLUMNS) + "\n"

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
            "dilation_norm", "kraus_completeness", "pdc_nl_sum",
            "pdc_predictability_invariance", "pdc_subtraction", "pfc_coherence_split",
            "pfc_predictability_invariance", "sector_total_consistency", "three_halves",
            "xstate_ppt_consistency",
        ]
        assert lines[-1] == "22/22 checks within tolerance 1e-10"

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

    @pytest.mark.parametrize("argv, skipped", [
        (["--x", "0.999"], "adc_symmetric_columns"),  # no x = 1/sqrt(2)
        (["--p-start", "0.2", "--p-stop", "0.3"], "dc_terminal_locality"),  # no p = 1
    ], ids=["no_balanced_x", "no_p_of_one"])
    def test_a_check_without_grid_points_is_named_as_skipped(self, capsys, argv, skipped):
        assert main(["verify", *argv]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert [line for line in lines if line.startswith("SKIP")] == [
            f"SKIP  {skipped:<32} no grid point in its domain"]
        assert [line.split()[1] for line in lines[:-1]] == sorted(
            line.split()[1] for line in lines[:-1])
        assert lines[-1] == "21/21 checks within tolerance 1e-10"  # the skip is not counted

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


class TestTracker:
    def test_first_max_wins_and_only_the_winner_is_placed(self):
        placed = []

        def where(i):
            placed.append(i)
            return f"row {i}"

        t = _Tracker()
        t.track("c", [0.1, 0.3, 0.3, 0.2], where)
        assert t.worst["c"] == (0.3, "row 1")
        t.track("c", np.array([0.3]), where)  # a tie keeps the earlier worst
        assert t.worst["c"] == (0.3, "row 1")
        t.track("c", [0.5, 0.4], where)
        assert t.worst["c"] == (0.5, "row 0")
        assert placed == [1, 0]

    def test_nan_ranks_as_the_worst_value(self):
        t = _Tracker()
        t.track("c", [1e-16], lambda i: "finite")
        t.track("c", [0.5, np.nan, np.nan], lambda i: f"nan {i}")
        t.track("c", [np.inf], lambda i: "inf")
        value, where = t.worst["c"]
        assert math.isnan(value) and where == "nan 1"

    def test_empty_array_records_nothing(self):
        t = _Tracker()
        t.track("c", np.array([]), lambda i: pytest.fail("an empty array was placed"))
        assert t.worst == {}


@pytest.mark.parametrize("kind", [k for k in ChannelKind if k.n_system_qubits == 2])
@pytest.mark.parametrize("x", [0.0, 0.3, INV_SQRT2, 1.0])
def test_state_columns_match_the_per_point_route(kind, x):
    # reference: each dilated state as a DensityOperator, its pairs by
    # partial_trace, PPT by a transpose written here and an eigensolve per matrix
    mu = 1.0 if kind is ChannelKind.CADC else 0.0
    ps = np.array([0.0, 0.15, 0.5, 0.85, 1.0])
    x, m, amplitudes, layout, pairs, cross_min = _block_columns(kind, mu, x, ps)
    columns = _state_columns(m, pairs, cross_min, amplitudes, layout)
    for i, psi in enumerate(amplitudes):
        rho_g = outer(psi, layout)
        cc_abe = correlated_coherence_hs(rho_g, ("A", "B", "E_A", "E_B"))
        assert abs(m["Cc_ABE"][i] - cc_abe) <= 1e-14
        rho_ab = partial_trace(rho_g, PAIRS["AB"])
        entangled_but_ppt = m["concurrence_AB"][i] > 1e-10 and is_ppt(rho_ab)
        assert columns["entangled_but_ppt"][i] == float(entangled_but_ppt)
        defect = 0.0
        for name in ("AEA", "AEB", "EAEB"):
            # the transpose on the pair's first qubit: (a, b, a', b') -> (a', b, a, b')
            pt = partial_trace(rho_g, PAIRS[name]).mat.reshape(2, 2, 2, 2).transpose(2, 1, 0, 3)
            lam = np.linalg.eigvalsh(pt.reshape(4, 4))[0]
            defect = max(defect, -float(lam))
        assert abs(columns["cross_ppt_defect"][i] - defect) <= 1e-14
        weights = sector_decomposition(psi, layout)
        assert abs(columns["sector_total"][i] - sum(weights.values())) <= 1e-14
        assert abs(columns["sector_AB"][i] - weights.get(frozenset(PAIRS["AB"]), 0.0)) <= 1e-14


@pytest.mark.parametrize("kind", list(ChannelKind), ids=lambda kind: kind.value)
def test_verify_blocks_reuse_the_engine_spectra(monkeypatch, kind):
    # verify's checks add no eigen-solve to the engine's: they reuse its
    # cross-pair PPT minima, and the A-B PPT test of an X state is closed-form
    calls = []
    eigvalsh = np.linalg.eigvalsh

    def counted(*args, **kwargs):
        calls.append(1)
        return eigvalsh(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", counted)
    cfg = small_config(channels=(kind,), p_count=5)
    for block in _blocks(cfg, set(cfg.x_values) | set(TENTHS)):
        _block_columns(*block, cfg.p_grid())
    engine = len(calls)
    calls.clear()
    _verify_blocks(cfg, _Tracker())
    assert len(calls) == engine
    assert (engine == 0) is (kind in (ChannelKind.ADC, ChannelKind.CADC, ChannelKind.BFC))


@pytest.mark.parametrize("kind", list(ChannelKind), ids=lambda kind: kind.value)
def test_verify_kraus_checks_each_image_stack_at_once(monkeypatch, kind):
    # one eigen-solve per (kind, mu, x) image stack at most, and no
    # DensityOperator per p, however many p the grid holds
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
    stacks = 2 * (2 if kind is ChannelKind.CADC else 1)  # (mu with a dilation) x (two x)
    per_grid = []
    for p_count in (5, 101):
        counts.clear()
        _verify_kraus(small_config(channels=(kind,), p_count=p_count), _Tracker())
        per_grid.append(dict(counts))
    assert per_grid[0] == per_grid[1]
    assert 0 < per_grid[0]["eigvalsh"] <= stacks
    assert per_grid[0].get("density_operator", 0) <= stacks


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

    def test_bad_channel_name(self, capsys):
        # argparse rejects the value itself, which also exits with code 2
        with pytest.raises(SystemExit) as exc:
            main(["sweep", "--channels", "warp", "--out", "x.csv"])
        assert exc.value.code == 2

    @pytest.mark.parametrize(
        "flag, value, message",
        [
            ("--channels", "adc,warp", "unknown channel 'warp' (choose from adc,cadc,pdc,"),
            ("--x", "0.5,abc", "argument --x: x: could not convert string to float: 'abc'"),
        ],
    )
    def test_bad_list_token_named(self, capsys, flag, value, message):
        with pytest.raises(SystemExit) as exc:
            main(["sweep", flag, value, "--out", "x.csv"])
        assert exc.value.code == 2
        assert message in capsys.readouterr().err

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

        local = channels._local_isometry

        def squared(kind, p):
            return local(kind, p * p if kind in (ChannelKind.ADC, ChannelKind.CADC) else p)

        monkeypatch.setattr(channels, "_local_isometry", squared)
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
    ], ids=["p_count", "mu", "x", "channels"])
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


class TestBuildConfigDefaults:
    def test_defaults(self):
        import argparse

        ns = argparse.Namespace(
            channels=None, x=None, p_start=None, p_stop=None, p_count=None,
            mu=None, config=None,
        )
        cfg = build_config(ns)
        assert cfg.channels == tuple(ChannelKind)
        assert cfg.x_values == DEFAULT_X
        assert cfg.p_count == 101
        assert cfg.mu == 1.0
        assert cfg.fmt == "csv"
        assert cfg.tolerance == 1e-10


def count_sector_decompositions(monkeypatch) -> list:
    from ccrsweep import cli, reports

    calls = []

    def counted(*args):
        calls.append(1)
        return sector_decomposition(*args)

    for module in (cli, reports):  # both bind the name on import
        monkeypatch.setattr(module, "sector_decomposition", counted)
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
    # one per two-qubit block: 13 x values (the grid's and every tenth) for
    # adc, cadc and pdc, and x = 1/sqrt(2) for bfc
    assert len(calls) == 3 * 13 + 1


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
