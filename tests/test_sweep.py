"""End-to-end sweep pipelines, optimization and CSV output."""

import io
from dataclasses import replace

import pytest

from mdiqkd import (
    DetectorParams,
    DistanceGrid,
    DomainError,
    FiniteKeyConfig,
    FluctuationMethod,
    Scenario,
    SourceKind,
    SourceSpec,
    calibrate_pulse_pairs,
    compare_sources,
    comparison_scenarios,
    cutoff_distance,
    evaluate_point,
    gains,
    optimize_intensities,
    run_sweep,
    write_csv,
    yield_tables,
)
from mdiqkd.sweep import CSV_COLUMNS, _cached_gains, _observed, csv_rows


SMALL_GRID = {"grid": DistanceGrid(0.0, 100.0, 50.0)}


def small(**kw):
    base = Scenario(**SMALL_GRID)
    return replace(base, **kw) if kw else base


def test_evaluate_point_is_deterministic():
    scenario = small()
    a = evaluate_point(scenario, 75.0)
    b = evaluate_point(scenario, 75.0)
    assert a == b
    assert a.rate > 0.0
    assert a.q11_z <= a.q_z
    assert a.source == "css" and a.method == "asymptotic"


def test_rate_decreases_with_distance():
    scenario = small()
    points = [evaluate_point(scenario, d) for d in (0.0, 50.0, 100.0, 200.0)]
    rates = [p.rate for p in points]
    assert rates == sorted(rates, reverse=True)
    assert all(r > 0 for r in rates)


def test_memoised_gains_equal_a_fresh_contraction():
    key = (SourceSpec.wcs(0.4), SourceSpec.vacuum(), DetectorParams(0.037, 1e-7), 15, 0.015)
    first = _cached_gains(*key)
    assert _cached_gains(*key) is first
    spec_a, spec_b, params, cutoff, e_d = key
    fresh = gains(spec_a, spec_b, yield_tables(params, cutoff), e_d)
    assert first == fresh


def _memo_key(scenario, distance_km):
    system = replace(scenario.system, distance_km=distance_km)
    return (
        scenario.signal_spec(scenario.signal_mu), scenario.signal_spec(scenario.decoy_mu),
        system.detector_params(), scenario.cutoff, system.misalignment,
    )


def test_per_point_memo_is_keyed_by_every_input():
    base = small(
        source_kind=SourceKind.NONIDEAL_CSS,
        finite_key=FiniteKeyConfig(FluctuationMethod.STANDARD, 1e12),
    )
    _observed.cache_clear()
    first = evaluate_point(base, 60.0)
    assert _observed.cache_info().misses == 1
    # a hit returns the memoised entry itself
    entry = _observed(*_memo_key(base, 60.0))
    assert _observed(*_memo_key(base, 60.0)) is entry
    again = evaluate_point(base, 60.0)
    assert _observed.cache_info().hits == 3
    assert again == first and again.gains_signal is entry.gains["ss"]
    # and it equals a fresh computation
    _observed.cache_clear()
    _cached_gains.cache_clear()
    assert evaluate_point(base, 60.0) == first
    assert _observed(*_memo_key(base, 60.0)) == entry

    variants = {
        "misalignment": (replace(base, system=replace(base.system, misalignment=0.02)), 60.0),
        "cutoff": (replace(base, cutoff=12), 60.0),
        "odd weight": (replace(base, odd_weight=0.8), 60.0),
        "decoy mu": (replace(base, decoy_mu=0.02), 60.0),
        "distance": (base, 61.0),
    }
    for field, (scenario, distance_km) in variants.items():
        misses = _observed.cache_info().misses
        evaluate_point(scenario, distance_km)
        assert _observed.cache_info().misses == misses + 1, field


def test_run_sweep_orders_by_distance():
    points = run_sweep(small())
    assert [p.distance_km for p in points] == [0.0, 50.0, 100.0]
    assert all(p.source == "css" for p in points)


def test_sps_pipeline_reports_unit_intensities():
    points = run_sweep(small(source_kind=SourceKind.SPS))
    assert all(p.mu_signal == 0.0 and p.mu_decoy == 0.0 for p in points)
    assert all(p.rate > 0 for p in points)
    # single photons: q11 equals the observed-gain lower bound, and in
    # the asymptotic case the z gain itself
    assert points[0].q11_z == pytest.approx(points[0].q_z, rel=1e-12)


def test_compare_sources_groups_by_source():
    points = compare_sources(small())
    sources = [p.source for p in points]
    assert sources == (
        ["sps"] * 3 + ["css"] * 3 + ["nonideal_css"] * 3 + ["wcs"] * 3
    )
    kinds = [s.source_kind for s in comparison_scenarios(small())]
    assert kinds == [
        SourceKind.SPS,
        SourceKind.CSS,
        SourceKind.NONIDEAL_CSS,
        SourceKind.WCS,
    ]


def test_optimize_picks_best_intensities():
    scenario = small(
        mu1_candidates=(0.05, 0.1, 0.2),
        mu2_candidates=(0.01, 0.02),
        grid=DistanceGrid(0.0, 50.0, 50.0),
    )
    points = optimize_intensities(scenario)
    assert len(points) == 2
    for point in points:
        # exhaustive check against every feasible candidate
        for mu1 in scenario.mu1_candidates:
            for mu2 in scenario.mu2_candidates:
                if mu1 <= mu2:
                    continue
                other = evaluate_point(
                    replace(scenario, signal_mu=mu1, decoy_mu=mu2),
                    point.distance_km,
                )
                assert point.rate >= other.rate


def test_optimize_tie_breaks_toward_smaller_intensities():
    # a grid whose pairs are all equivalent: duplicated candidates
    scenario = small(
        mu1_candidates=(0.1, 0.1),
        mu2_candidates=(0.01,),
        grid=DistanceGrid(0.0, 0.0, 1.0),
    )
    points = optimize_intensities(scenario)
    assert points[0].mu_signal == 0.1 and points[0].mu_decoy == 0.01


def test_optimize_rejects_infeasible_grid():
    scenario = small(mu1_candidates=(0.01,), mu2_candidates=(0.05,))
    with pytest.raises(DomainError):
        optimize_intensities(scenario)


def test_optimize_rejects_sps():
    with pytest.raises(DomainError):
        optimize_intensities(small(source_kind=SourceKind.SPS))


def test_cutoff_distance_monotone_in_pulse_count():
    scenario = small(
        source_kind=SourceKind.WCS, signal_mu=0.4, decoy_mu=0.07,
        finite_key=FiniteKeyConfig(FluctuationMethod.STANDARD, 1e12),
    )
    short = cutoff_distance(scenario, max_km=500.0, step_km=25.0)
    longer = cutoff_distance(
        replace(scenario, finite_key=FiniteKeyConfig(FluctuationMethod.STANDARD, 1e14)),
        max_km=500.0,
        step_km=25.0,
    )
    asym = cutoff_distance(
        replace(scenario, finite_key=FiniteKeyConfig(FluctuationMethod.ASYMPTOTIC)),
        max_km=500.0,
        step_km=25.0,
    )
    assert short <= longer <= asym


@pytest.mark.parametrize("method", list(FluctuationMethod))
def test_cutoff_distance_bisection_equals_a_linear_scan(method):
    """The bisection assumes the rate falls with distance; on every
    comparison source it finds what a scan of the whole grid finds."""
    base = Scenario(finite_key=FiniteKeyConfig(method))
    for scenario in comparison_scenarios(base):
        positive = [
            d for d in (5.0 * k for k in range(121)) if evaluate_point(scenario, d).rate > 0.0
        ]
        want = max(positive) if positive else None
        assert cutoff_distance(scenario, max_km=600.0, step_km=5.0) == want, scenario.source_kind


def test_calibration_returns_start_when_already_inside_window():
    scenario = small(
        source_kind=SourceKind.WCS, signal_mu=0.4, decoy_mu=0.07,
        finite_key=FiniteKeyConfig(FluctuationMethod.STANDARD, 1e13),
    )
    result = calibrate_pulse_pairs(
        scenario, window=(0.0, 600.0), start=1e13, step_km=50.0, max_km=600.0
    )
    assert result.in_window
    assert result.pulse_pairs == 1e13


def test_csv_format_is_stable():
    points = run_sweep(small())
    rows = csv_rows(points)
    assert rows[0] == ",".join(CSV_COLUMNS)
    assert len(rows) == 4
    first = rows[1].split(",")
    assert first[0] == "0"
    assert first[1] == "css"
    assert first[2] == "asymptotic"
    # every numeric field round-trips exactly through the format
    assert float(first[3]) == points[0].mu_signal
    assert float(first[9]) == points[0].rate

    buffer = io.StringIO()
    write_csv(points, buffer)
    assert buffer.getvalue() == "\n".join(rows) + "\n"


def test_csv_handles_infinite_error_bound(tmp_path):
    # at absurd distance with tiny pulse count the X gain interval can
    # reach zero, which sends the error bound to infinity; the CSV must
    # still be well-formed
    scenario = small(
        finite_key=FiniteKeyConfig(FluctuationMethod.STANDARD, 1e2),
        grid=DistanceGrid(400.0, 400.0, 1.0),
    )
    points = run_sweep(scenario)
    assert points[0].rate == 0.0 > points[0].rate_unclamped
    path = tmp_path / "out.csv"
    write_csv(points, str(path))
    text = path.read_text()
    assert "inf" in text or float(text.splitlines()[1].split(",")[8]) >= 0
