"""Configuration parsing and the command-line interface."""

import csv
import math
import os
import subprocess
import sys

import pytest

import mdiqkd
from mdiqkd import (
    ConfigError,
    DetectorParams,
    DistanceGrid,
    FiniteKeyConfig,
    FluctuationMethod,
    Scenario,
    SourceKind,
    SystemParams,
    load_scenario,
    parse_kv_text,
    scenario_from_mapping,
    yield_tables,
)
from mdiqkd.cli import main
from mdiqkd.bsm import MAX_CUTOFF
from mdiqkd.config import MAX_GRID_POINTS

from _oracles import dense_tables
from test_decoy import DIGITLESS_POINTS


def test_parse_kv_basic():
    text = """
    # a comment
    source.kind = css   # trailing comment
    source.signal_mu = 0.1

    grid.step_km = 25
    """
    mapping = parse_kv_text(text)
    assert mapping == {
        "source.kind": "css",
        "source.signal_mu": "0.1",
        "grid.step_km": "25",
    }


@pytest.mark.parametrize(
    "text,fragment",
    [
        ("source.kind css", "line 1"),
        ("= 0.1", "empty key"),
        ("source.kind =", "empty value"),
        ("a.b = 1\na.b = 2", "duplicate"),
    ],
)
def test_parse_kv_rejects_malformed_lines(text, fragment):
    with pytest.raises(ConfigError) as err:
        parse_kv_text(text)
    assert fragment in str(err.value)


def test_defaults_without_config():
    scenario = load_scenario(None)
    assert scenario.source_kind is SourceKind.CSS
    assert scenario.signal_mu == 0.1 and scenario.decoy_mu == 0.01
    assert scenario.system.detector_efficiency == 0.40
    assert scenario.system.dark_count == 1e-7
    assert scenario.system.fiber_loss_db_km == 0.2
    assert scenario.system.misalignment == 0.015
    assert scenario.system.ec_efficiency == 1.16
    assert scenario.finite_key.method is FluctuationMethod.ASYMPTOTIC
    assert scenario.cutoff == 15
    # every default is the dataclasses' own
    assert scenario == Scenario()


def test_full_mapping_round_trip():
    scenario = scenario_from_mapping(
        {
            "source.kind": "nonideal_css",
            "source.signal_mu": "0.2",
            "source.decoy_mu": "0.02",
            "source.odd_weight": "0.8",
            "system.detector_efficiency": "0.5",
            "system.dark_count": "1e-6",
            "system.fiber_loss_db_km": "0.21",
            "system.misalignment": "0.02",
            "system.ec_efficiency": "1.2",
            "grid.start_km": "10",
            "grid.stop_km": "50",
            "grid.step_km": "20",
            "finite_key.method": "chernoff",
            "finite_key.pulse_pairs": "1e13",
            "finite_key.sigmas": "6",
            "finite_key.epsilon": "1e-8",
            "bsm.cutoff": "10",
            "optimize.mu1_values": "0.1, 0.2",
            "optimize.mu2_values": "0.01",
        }
    )
    assert scenario == Scenario(
        source_kind=SourceKind.NONIDEAL_CSS,
        signal_mu=0.2,
        decoy_mu=0.02,
        odd_weight=0.8,
        system=SystemParams(0.0, 0.5, 1e-6, 0.21, 0.02, 1.2),
        grid=DistanceGrid(10.0, 50.0, 20.0),
        finite_key=FiniteKeyConfig(FluctuationMethod.CHERNOFF, 1e13, 6.0, 1e-8),
        cutoff=10,
        mu1_candidates=(0.1, 0.2),
        mu2_candidates=(0.01,),
    )
    assert scenario.grid.distances() == (10.0, 30.0, 50.0)


def test_public_names_resolve():
    for name in mdiqkd.__all__:
        assert getattr(mdiqkd, name) is not None, name


@pytest.mark.parametrize(
    "mapping",
    [
        {"source.type": "css"},  # unknown key
        {"source.kind": "thermal"},
        {"source.signal_mu": "fast"},
        {"bsm.cutoff": "2.5"},
        {"finite_key.method": "bootstrap"},
        {"source.signal_mu": "0.01", "source.decoy_mu": "0.1"},
        {"source.odd_weight": "0"},
        {"source.tail_tolerance": "1e-15"},  # removed key
        {"grid.step_km": "0"},
        {"grid.start_km": "100", "grid.stop_km": "50"},
        {"grid.start_km": "-5"},
        {"decoy.wcs_estimator": "two_decoy_generic"},  # removed key
        {"optimize.mu1_values": " , "},
        {"system.detector_efficiency": "0"},
        {"finite_key.pulse_pairs": "0"},
        {"bsm.cutoff": "0"},
    ],
)
def test_invalid_configurations_are_rejected(mapping):
    with pytest.raises(ConfigError):
        scenario_from_mapping(mapping)


@pytest.mark.parametrize(
    "build,message",
    [
        (lambda: Scenario(source_kind=SourceKind.VACUUM), "cannot be used as a signal source"),
        (lambda: Scenario(mu1_candidates=()), "optimization grids must be non-empty"),
        (lambda: Scenario(mu2_candidates=()), "optimization grids must be non-empty"),
    ],
    ids=["vacuum signal", "empty mu1 grid", "empty mu2 grid"],
)
def test_checks_the_config_file_cannot_reach_name_the_problem(build, message):
    """The parser refuses these values first; a direct build is checked too."""
    with pytest.raises(ConfigError, match=message):
        build()


def test_cli_overrides_take_precedence():
    text = "finite_key.method = standard\nfinite_key.pulse_pairs = 1e12\n"
    scenario = load_scenario(text, method="chernoff", pulse_pairs=1e15)
    assert scenario.finite_key.method is FluctuationMethod.CHERNOFF
    assert scenario.finite_key.pulse_pairs == 1e15


@pytest.mark.parametrize("method", ["asymptotic", "standard", "chernoff"])
@pytest.mark.parametrize("pulse_pairs", [1.0, 1e12, 2.6418953634508e12, 1e14 / 3, 1e300])
@pytest.mark.parametrize(
    "text",
    [
        "source.kind = wcs\ngrid.stop_km = 100\n",
        "finite_key.method = standard\nfinite_key.pulse_pairs = 1e13\nsource.kind = wcs\n",
        None,
    ],
    ids=["keys-unset", "keys-set", "no-file"],
)
def test_overrides_are_the_config_keys(text, method, pulse_pairs):
    """An override is the key line it sets, parsed the same way: the
    scenario equals that of the text with the two key lines in place of
    any it had, and the float arrives exactly."""
    kept = [line for line in (text or "").splitlines()
            if not line.startswith(("finite_key.method", "finite_key.pulse_pairs"))]
    keyed = "\n".join(
        [*kept, f"finite_key.method = {method}", f"finite_key.pulse_pairs = {pulse_pairs!r}"]
    )
    scenario = load_scenario(text, method=method, pulse_pairs=pulse_pairs)
    assert scenario == load_scenario(keyed)
    assert scenario.finite_key.pulse_pairs == pulse_pairs


@pytest.mark.parametrize(
    "kwargs,message",
    [
        ({"method": "bootstrap"}, "finite_key.method: expected one of"),
        ({"pulse_pairs": math.inf}, "finite_key.pulse_pairs: value must be finite, got 'inf'"),
        ({"pulse_pairs": math.nan}, "finite_key.pulse_pairs: value must be finite, got 'nan'"),
        ({"pulse_pairs": 0.5}, "pulse_pairs must be finite and >= 1, got 0.5"),
    ],
)
def test_overrides_are_checked_as_config_keys(kwargs, message):
    with pytest.raises(ConfigError, match=message):
        load_scenario("finite_key.method = standard", **kwargs)


def test_a_leading_byte_order_mark_is_dropped(tmp_path, capsys):
    text = "source.kind = wcs\nsource.signal_mu = 0.4\nsource.decoy_mu = 0.07\n"
    assert parse_kv_text("\ufeff" + text) == parse_kv_text(text)
    # only one: a second mark is part of the key, and unknown
    with pytest.raises(ConfigError, match=r"unknown config key '\\ufeffsource\.kind'"):
        load_scenario("\ufeff\ufeff" + text)
    plain, marked, out = (tmp_path / name for name in ("plain.cfg", "bom.cfg", "out.csv"))
    plain.write_text(text, encoding="utf-8")
    marked.write_bytes(b"\xef\xbb\xbf" + text.encode("utf-8"))
    assert main(["sweep", "--config", str(plain), "--out", str(out)]) == 0
    expected = out.read_bytes()
    assert main(["sweep", "--config", str(marked), "--out", str(out)]) == 0
    assert out.read_bytes() == expected
    # the offset of a bad byte still counts the mark's three bytes
    marked.write_bytes(b"\xef\xbb\xbfsource.kind = css\xff\n")
    assert main(["sweep", "--config", str(marked)]) == 2
    assert "not UTF-8 at byte 20" in capsys.readouterr().err


@pytest.mark.parametrize("cutoff", [15.0, 2.5, "15", None])
def test_a_cutoff_that_is_not_an_integer_is_a_config_error(cutoff):
    with pytest.raises(ConfigError, match=f"cutoff must be an integer, got {cutoff!r}"):
        Scenario(cutoff=cutoff)


def test_the_scenario_checks_the_cutoff_range():
    """The range [1, MAX_CUTOFF] is checked when a scenario is built,
    directly or from config pairs."""
    for build in (lambda: Scenario(cutoff=21), lambda: scenario_from_mapping({"bsm.cutoff": "21"})):
        with pytest.raises(ConfigError, match=r"cutoff must lie in \[1, 20\], got 21"):
            build()
    assert MAX_CUTOFF == 20 and Scenario(cutoff=MAX_CUTOFF).cutoff == 20


def test_grid_distances_include_endpoint():
    grid = DistanceGrid(0.0, 400.0, 25.0)
    distances = grid.distances()
    assert distances[0] == 0.0 and distances[-1] == 400.0
    assert len(distances) == 17


def test_grid_point_count_is_capped(monkeypatch):
    assert len(DistanceGrid(0.0, MAX_GRID_POINTS - 1.0, 1.0).distances()) == MAX_GRID_POINTS
    with pytest.raises(ConfigError, match=f"grid has {MAX_GRID_POINTS + 1} points"):
        DistanceGrid(0.0, float(MAX_GRID_POINTS), 1.0)

    def build_tuple(self):
        raise AssertionError("the grid was built before the cap was checked")

    # the cap is checked before any distance is generated
    monkeypatch.setattr(DistanceGrid, "distances", build_tuple)
    with pytest.raises(ConfigError, match="grid has 400000000001 points"):
        DistanceGrid(0.0, 400.0, 1e-9)
    with pytest.raises(ConfigError, match="grid has inf points"):
        DistanceGrid(0.0, 400.0, 5e-324)


def test_cli_rejects_oversized_grid(tmp_path, capsys):
    cfg = _write_cfg(tmp_path, "grid.step_km = 1e-9\n")
    assert main(["sweep", "--config", cfg]) == 2
    assert "grid has 400000000001 points" in capsys.readouterr().err


def _write_cfg(tmp_path, text):
    path = tmp_path / "scenario.cfg"
    path.write_text(text)
    return str(path)


BASE_CFG = """
source.kind = css
grid.start_km = 0
grid.stop_km = 50
grid.step_km = 50
finite_key.method = standard
finite_key.pulse_pairs = 1e13
"""


def test_cli_sweep_writes_csv(tmp_path, capsys):
    cfg = _write_cfg(tmp_path, BASE_CFG)
    out = tmp_path / "rates.csv"
    assert main(["sweep", "--config", cfg, "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "distance_km,source,method,mu1,mu2,q_z,E_z,y11_lower,e11_upper,rate"
    assert len(lines) == 3
    assert lines[1].split(",")[2] == "standard"


def test_cli_sweep_stdout(tmp_path, capsys):
    cfg = _write_cfg(tmp_path, BASE_CFG)
    assert main(["sweep", "--config", cfg]) == 0
    out = capsys.readouterr().out
    assert out.startswith("distance_km,")


def test_cli_output_is_byte_identical(tmp_path):
    cfg = _write_cfg(tmp_path, BASE_CFG)
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(["sweep", "--config", cfg, "--out", str(a)]) == 0
    assert main(["sweep", "--config", cfg, "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_cli_method_and_pulses_overrides(tmp_path):
    cfg = _write_cfg(tmp_path, BASE_CFG)
    out = tmp_path / "rates.csv"
    assert main(
        ["sweep", "--config", cfg, "--method", "chernoff", "--pulses", "1e12", "--out", str(out)]
    ) == 0
    assert out.read_text().splitlines()[1].split(",")[2] == "chernoff"


def test_cli_optimize_and_yields(tmp_path, capsys):
    cfg = _write_cfg(
        tmp_path, BASE_CFG + "optimize.mu1_values = 0.1,0.2\noptimize.mu2_values = 0.01\n"
    )
    assert main(["optimize", "--config", cfg]) == 0
    rows = capsys.readouterr().out.splitlines()
    assert len(rows) == 3

    assert main(["yields", "--config", cfg, "--distance-km", "100"]) == 0
    report = capsys.readouterr().out
    assert "y11_z = " in report and "vacuum_yield = " in report
    values = dict(line.split(" = ") for line in report.strip().splitlines())
    assert float(values["overall_efficiency"]) == pytest.approx(0.04, rel=1e-12)
    assert float(values["vacuum_yield"]) == pytest.approx(2e-14, rel=1e-6)


@pytest.mark.parametrize("eta,distance_km,config", [
    (1.0, 0.0, "system.detector_efficiency = 1\n"),
    (1e-300, 0.0, "system.detector_efficiency = 1e-300\nsystem.fiber_loss_db_km = 0\n"),
    (0.4, 0.0, "system.detector_efficiency = 0.4\nsystem.fiber_loss_db_km = 0\n"),
    (0.0, 100000.0, "system.detector_efficiency = 1\n"),  # 10^-1000 underflows
], ids=["eta=1", "eta=1e-300", "eta=0.4", "eta=0"])
def test_cli_yields_report_matches_the_table_oracle(tmp_path, capsys, eta, distance_km, config):
    """The (1, 1) and (0, 0) entries of the binomial-row tables, bit for
    bit; dark counts keep every yield above zero."""
    cfg = _write_cfg(tmp_path, config + "system.misalignment = 0.015\n")
    assert main(["yields", "--config", cfg, "--distance-km", str(distance_km)]) == 0
    report = capsys.readouterr().out.strip().splitlines()
    values = {k: float(v) for k, v in (line.split(" = ") for line in report)}
    assert values["overall_efficiency"] == eta
    dense = dense_tables(yield_tables(DetectorParams(eta, 1e-7), int(values["cutoff"])))
    for basis in ("z", "x"):
        correct, error = dense[f"correct_{basis}"][1][1], dense[f"error_{basis}"][1][1]
        y11 = correct + error
        assert values[f"y11_{basis}"] == y11
        assert values[f"e11_{basis}"] == (0.015 * correct + (1.0 - 0.015) * error) / y11
    assert values["vacuum_yield"] == dense["correct_z"][0][0]


@pytest.mark.parametrize("command", ["sweep", "compare", "optimize", "yields"])
@pytest.mark.parametrize("out", ["", "missing-dir/x.csv", "."])
def test_cli_unwritable_output_is_a_config_error(tmp_path, monkeypatch, capsys, command, out):
    """An empty path, a missing directory and a directory exit 2 before
    the run computes anything."""
    def forbidden(*args):
        raise AssertionError("the run started before --out was checked")

    # every pipeline builds a setup through sweep._setup, and evaluates
    # its points through sweep._evaluate
    monkeypatch.setattr(mdiqkd.sweep, "_setup", forbidden)
    monkeypatch.setattr(mdiqkd.sweep, "_evaluate", forbidden)
    monkeypatch.setattr(mdiqkd.cli, "_yields_report", forbidden)
    monkeypatch.chdir(tmp_path)
    cfg = _write_cfg(tmp_path, "grid.stop_km = 0\n")
    assert main([command, "--config", cfg, "--out", out]) == 2
    assert f"cannot write output {out!r}" in capsys.readouterr().err


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
def test_cli_write_that_fails_after_the_check_is_a_config_error(tmp_path, capsys):
    """/dev/full opens for writing, so it passes the check before the run,
    and then every write to it fails."""
    cfg = _write_cfg(tmp_path, "grid.stop_km = 0\n")
    assert main(["sweep", "--config", cfg, "--out", "/dev/full"]) == 2
    assert "cannot write output '/dev/full'" in capsys.readouterr().err


def test_cli_failed_run_leaves_the_output_as_it_was(tmp_path, capsys):
    # a bright source that overruns cutoff 8 exits 3 during the run,
    # after --out was checked
    cfg = _write_cfg(
        tmp_path, "source.kind = wcs\nsource.signal_mu = 1.0\nbsm.cutoff = 8\n"
    )
    new = tmp_path / "new.csv"
    assert main(["sweep", "--config", cfg, "--out", str(new)]) == 3
    assert "yield-table cutoff 8" in capsys.readouterr().err
    assert not new.exists()
    old = tmp_path / "old.csv"
    old.write_text("kept\n" * 1000)
    assert main(["sweep", "--config", cfg, "--out", str(old)]) == 3
    assert old.read_text() == "kept\n" * 1000
    # a run that succeeds replaces the whole file
    assert main(["sweep", "--out", str(old)]) == 0
    assert old.read_text().startswith("distance_km,") and "kept" not in old.read_text()


@pytest.mark.parametrize("intensities,distance_km", DIGITLESS_POINTS)
def test_cli_yield_bound_above_one_exits_3(tmp_path, capsys, intensities, distance_km):
    mu1, mu2 = intensities
    cfg = _write_cfg(
        tmp_path,
        f"source.kind = wcs\nsource.signal_mu = {mu1!r}\nsource.decoy_mu = {mu2!r}\n"
        f"grid.start_km = {distance_km!r}\ngrid.stop_km = {distance_km!r}\n",
    )
    out = tmp_path / "rates.csv"
    out.write_text("kept\n")
    assert main(["sweep", "--config", cfg, "--out", str(out)]) == 3
    assert "bound_without_digits" in capsys.readouterr().err
    assert out.read_text() == "kept\n"


def test_cli_subnormal_gains_exit_3(tmp_path, capsys):
    cfg = _write_cfg(
        tmp_path,
        "system.detector_efficiency = 1e-160\nsystem.dark_count = 0\n"
        "grid.start_km = 0\ngrid.stop_km = 0\n",
    )
    assert main(["sweep", "--config", cfg]) == 3
    assert "bound_without_digits" in capsys.readouterr().err


def test_cli_exit_code_on_bad_config(tmp_path, capsys):
    cfg = _write_cfg(tmp_path, "source.kind = thermal\n")
    assert main(["sweep", "--config", cfg]) == 2
    assert "error:" in capsys.readouterr().err
    assert main(["sweep", "--config", str(tmp_path / "missing.cfg")]) == 2


def test_cli_exit_code_on_domain_failure(tmp_path, capsys):
    # a cutoff above the maximum is refused when the config is read
    cfg = _write_cfg(tmp_path, "bsm.cutoff = 21\n")
    assert main(["sweep", "--config", cfg]) == 2
    assert "error:" in capsys.readouterr().err


def test_cli_cutoff_above_the_maximum_exits_2_before_the_output(tmp_path, monkeypatch, capsys):
    def forbidden(*args):
        raise AssertionError("the run started with a cutoff above the maximum")

    monkeypatch.setattr(mdiqkd.sweep, "_setup", forbidden)
    monkeypatch.setattr(mdiqkd.sweep, "_evaluate", forbidden)
    cfg = _write_cfg(tmp_path, "bsm.cutoff = 21\n")
    new = tmp_path / "new.csv"
    assert main(["sweep", "--config", cfg, "--out", str(new)]) == 2
    assert "cutoff must lie in [1, 20], got 21" in capsys.readouterr().err
    assert not new.exists()


def test_cli_exit_code_on_non_convergent_cat_source(tmp_path, capsys):
    cfg = _write_cfg(tmp_path, "source.signal_mu = 800\nsource.decoy_mu = 0.01\n")
    assert main(["sweep", "--config", cfg]) == 3
    err = capsys.readouterr().err
    assert "series for mu=800.0 does not converge within 512 photons" in err


def _cat_cfg(tmp_path, signal, decoy):
    return _write_cfg(
        tmp_path, f"source.kind = css\nsource.signal_mu = {signal}\nsource.decoy_mu = {decoy}\n"
    )


@pytest.mark.parametrize("signal,decoy", [("1e-320", "5e-324"), ("0.010000000000001", "0.01")])
def test_cli_exit_code_on_degenerate_cat_intensities(tmp_path, capsys, signal, decoy):
    # P3 = mu^3 / 6 underflows to 0 for both intensities in the first
    # case; in the second (P1, P3) differ by 1e-13 relative
    assert main(["sweep", "--config", _cat_cfg(tmp_path, signal, decoy)]) == 3
    assert "denominator_ill_conditioned" in capsys.readouterr().err


@pytest.mark.parametrize("signal,decoy", [("2e-55", "1e-55"), ("2e-54", "1e-54")])
def test_cli_faint_cat_intensities_give_finite_rates(tmp_path, signal, decoy):
    # mu1^2 mu2^2 (mu1^2 - mu2^2) underflows here, but the two-point
    # bound in (P1, P3) keeps its digits
    out = tmp_path / "out.csv"
    assert main(["sweep", "--config", _cat_cfg(tmp_path, signal, decoy), "--out", str(out)]) == 0
    rows = list(csv.DictReader(out.open()))
    numbers = [v for row in rows for k, v in row.items() if k not in ("source", "method")]
    assert rows and all(math.isfinite(float(v)) for v in numbers)


def test_cli_bright_source_fits_the_table_after_loss(tmp_path):
    # emitted, mu = 1 needs 17 photon numbers to drop less than 1e-15;
    # the arriving light at 0 km (efficiency 0.4) needs 13
    cfg = _write_cfg(
        tmp_path, "source.kind = wcs\nsource.signal_mu = 1.0\nbsm.cutoff = 15\n"
    )
    out = tmp_path / "out.csv"
    assert main(["sweep", "--config", cfg, "--out", str(out)]) == 0
    rows = list(csv.DictReader(out.open()))
    assert len(rows) == 17 and all(float(row["q_z"]) > 0.0 for row in rows)


def test_cli_exit_code_on_bright_source_at_long_distance(tmp_path, capsys):
    # at 400 km the arriving light fits the table, but P1 = mu e^-mu of the
    # signal is 1e-197 and the two-point bound's denominator underflows
    cfg = _write_cfg(
        tmp_path,
        "source.kind = wcs\nsource.signal_mu = 460\nsource.decoy_mu = 0.07\n"
        "grid.start_km = 400\ngrid.stop_km = 400\n",
    )
    assert main(["sweep", "--config", cfg]) == 3
    assert "denominator_underflow" in capsys.readouterr().err


def test_cli_sweeps_the_odd_only_imperfect_cat(tmp_path):
    """An imperfect cat with odd weight 1 emits no two-photon term; it is
    the ideal cat, and its sweep gives the css rows."""
    rows = {}
    for kind in ("nonideal_css", "css"):
        cfg = _write_cfg(tmp_path, f"source.kind = {kind}\nsource.odd_weight = 1\n")
        out = tmp_path / f"{kind}.csv"
        assert main(["sweep", "--config", cfg, "--out", str(out)]) == 0
        rows[kind] = [
            {k: v for k, v in row.items() if k != "source"}
            for row in csv.DictReader(out.open())
        ]
    assert rows["nonideal_css"] == rows["css"]
    assert float(rows["css"][0]["rate"]) > 0.0


def test_removed_wcs_estimator_key_is_unknown(tmp_path, capsys):
    with pytest.raises(ConfigError, match="unknown config key 'decoy.wcs_estimator'"):
        scenario_from_mapping({"decoy.wcs_estimator": "two_decoy_generic"})
    cfg = _write_cfg(tmp_path, "source.kind = wcs\ndecoy.wcs_estimator = two_decoy_generic\n")
    assert main(["sweep", "--config", cfg]) == 2
    assert "unknown config key" in capsys.readouterr().err


def test_removed_tail_tolerance_key_is_unknown(tmp_path, capsys):
    """The truncation tolerance is the constant ``sources.TAIL_TOLERANCE``."""
    cfg = _write_cfg(tmp_path, "source.tail_tolerance = 1e-15\n")
    assert main(["sweep", "--config", cfg]) == 2
    assert "unknown config key 'source.tail_tolerance'" in capsys.readouterr().err


def test_cli_rejects_workers_flag(capsys):
    """Runs are serial; the former --workers flag is a usage error."""
    assert main(["compare", "--workers", "2"]) == 2
    assert "--workers" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv,token",
    [
        (["sweep", "--verbose"], "--verbose"),  # unknown flag
        (["sweep", "--out"], "--out"),  # missing value
        (["compare", "--distance-km", "5"], "--distance-km"),  # yields only
        ([], "missing command"),
        (["simulate"], "'simulate'"),
        (["--config", "x.cfg", "sweep"], "'--config'"),  # options follow the command
        (["sweep", "extra"], "'extra'"),  # stray positional
        (["sweep", "--", "--out", "x.csv"], "'--out'"),  # positional after --
        (["sweep", "--pulses", "many"], "--pulses expects a number, got 'many'"),
        (["yields", "--distance-km", "far"], "--distance-km expects a number, got 'far'"),
    ],
    ids=[
        "unknown-flag", "missing-value", "distance-off-yields", "no-command",
        "unknown-command", "option-before-command", "positional", "positional-after-dashes",
        "pulses-not-a-number", "distance-not-a-number",
    ],
)
def test_cli_usage_errors_exit_2_naming_the_token(monkeypatch, capsys, argv, token):
    def forbidden(*args, **kwargs):
        raise AssertionError("a usage error reached the run")

    monkeypatch.setattr(mdiqkd.cli, "load_scenario", forbidden)
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and token in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("argv", [["-h"], ["--help"], ["sweep", "-h"], ["yields", "--help"]])
def test_cli_help_prints_usage(capsys, argv):
    assert main(argv) == 0
    assert capsys.readouterr().out == mdiqkd.cli.USAGE


@pytest.mark.parametrize(
    "spelling",
    [
        ["--config={cfg}", "--out", "{out}"],
        ["--conf", "{cfg}", "--out", "{out}"],  # a unique prefix
        ["--out", "{other}", "--config", "{cfg}", "--out", "{out}"],  # the last --out wins
        ["--config", "{cfg}", "--out", "{out}", "--"],
    ],
    ids=["equals", "prefix", "repeated", "dashes"],
)
def test_cli_option_spellings_give_the_same_bytes(tmp_path, spelling):
    cfg = _write_cfg(tmp_path, BASE_CFG)
    canonical, out, other = (tmp_path / name for name in ("a.csv", "b.csv", "c.csv"))
    assert main(["sweep", "--config", cfg, "--out", str(canonical)]) == 0
    argv = [arg.format(cfg=cfg, out=out, other=other) for arg in spelling]
    assert main(["sweep", *argv]) == 0
    assert out.read_bytes() == canonical.read_bytes()
    assert not other.exists()


def test_cli_config_that_is_not_utf8_is_a_config_error(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_bytes(b"source.kind = css\xff\xfe\n")
    assert main(["sweep", "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert f"cannot read config {str(cfg)!r}: not UTF-8 at byte 17" in err
    # the offset counts from the start of the file, past the decoder's chunks
    cfg.write_bytes(b"# " + b"x" * 20000 + b"\n\xc3")
    assert main(["sweep", "--config", str(cfg)]) == 2
    assert "not UTF-8 at byte 20003" in capsys.readouterr().err


_NO_ARGPARSE_SCRIPT = """
import sys
import mdiqkd.cli
assert mdiqkd.cli.main(["compare", "--out", sys.argv[1]]) == 0
loaded = sorted({"argparse", "locale"} & set(sys.modules))
assert not loaded, loaded
"""


def test_cli_run_imports_neither_argparse_nor_locale(tmp_path):
    """Parsing builds no parser objects and looks up no translations."""
    src = os.path.dirname(os.path.dirname(mdiqkd.__file__))
    result = subprocess.run(
        [sys.executable, "-c", _NO_ARGPARSE_SCRIPT, str(tmp_path / "out.csv")],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True, timeout=120,
    )
    assert result.returncode == 0, result.stderr
    assert (tmp_path / "out.csv").read_text().startswith("distance_km,")


def test_cli_rejects_infinite_pulse_count(capsys):
    assert main(["sweep", "--method", "chernoff", "--pulses", "inf"]) == 2
    err = capsys.readouterr().err
    assert "finite_key.pulse_pairs: value must be finite, got 'inf'" in err


@pytest.mark.parametrize("distance", ["nan", "inf"])
def test_cli_yields_rejects_non_finite_distance(capsys, distance):
    assert main(["yields", "--distance-km", distance]) == 3
    err = capsys.readouterr().err
    assert f"distance must be finite and >= 0, got {distance}" in err


@pytest.mark.parametrize("field", ["start_km", "stop_km"])
def test_non_finite_grid_is_rejected(tmp_path, capsys, field):
    with pytest.raises(ConfigError, match="grid start and stop must be finite"):
        DistanceGrid(**{field: math.inf})
    cfg = _write_cfg(tmp_path, f"grid.{field} = inf\n")
    assert main(["sweep", "--config", cfg]) == 2
    assert f"grid.{field}: value must be finite" in capsys.readouterr().err


_NO_NUMPY_SCRIPT = """
import importlib, os, pkgutil, sys
import mdiqkd, mdiqkd.cli
assert "numpy" not in sys.modules, "import mdiqkd loaded numpy"
for command in ("compare", "sweep", "yields"):
    code = mdiqkd.cli.main([command, "--config", sys.argv[1], "--out", os.devnull])
    assert code == 0, (command, code)
    assert "numpy" not in sys.modules, command + " loaded numpy"
for module in pkgutil.iter_modules(mdiqkd.__path__, "mdiqkd."):
    importlib.import_module(module.name)
    assert "numpy" not in sys.modules, module.name + " loaded numpy"
import numpy
assert "numpy" in sys.modules, "the check cannot see numpy"
"""


def test_package_and_cli_run_without_numpy(tmp_path):
    """No module of the package needs numpy; only the tests' Fock-state
    simulator does."""
    config = tmp_path / "grid.cfg"
    config.write_text("grid.start_km = 0\ngrid.stop_km = 100\ngrid.step_km = 50\n")
    src = os.path.dirname(os.path.dirname(mdiqkd.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    result = subprocess.run(
        [sys.executable, "-c", _NO_NUMPY_SCRIPT, str(config)],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert result.returncode == 0, result.stderr
