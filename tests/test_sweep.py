"""End-to-end sweep pipelines, optimization and CSV output."""

import io
import math
from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

import mdiqkd.bsm
import mdiqkd.sweep
from mdiqkd import (
    DetectorParams,
    DistanceGrid,
    DomainError,
    FiniteKeyConfig,
    FluctuationMethod,
    Scenario,
    SourceKind,
    SourceSpec,
    SystemParams,
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
from mdiqkd.decoy import CHANNELS
from mdiqkd.sweep import (
    CSV_COLUMNS,
    _cached_gains,
    _last_positive,
    _observed,
    csv_rows,
)

from _oracles import oracle_calibrate_pulse_pairs


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


@pytest.mark.parametrize("distance_km", [-1.0, -math.inf, math.inf, math.nan])
def test_evaluate_point_rejects_bad_distances(distance_km):
    with pytest.raises(DomainError, match=f"distance must be finite and >= 0, got {distance_km}"):
        evaluate_point(small(), distance_km)


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


@settings(max_examples=60, deadline=None)
@given(
    kind=st.sampled_from(list(CHANNELS)),
    mu2=st.floats(0.005, 0.2),
    ratio=st.floats(1.2, 4.0),
    # at odd_weight 1 the nonideal cat emits no two-photon term, and its
    # estimator rejects the pair as degenerate
    odd_weight=st.floats(0.5, 0.95),
    method=st.sampled_from(list(FluctuationMethod)),
    pulse_exponent=st.floats(8.0, 18.0),
    detector_efficiency=st.floats(0.05, 1.0),
    dark_count=st.floats(0.0, 1e-4),
    misalignment=st.floats(0.0, 0.1),
    ec_efficiency=st.floats(1.0, 1.5),
)
def test_positive_rates_form_a_prefix_of_the_distance_grid(
    kind, mu2, ratio, odd_weight, method, pulse_exponent,
    detector_efficiency, dark_count, misalignment, ec_efficiency,
):
    """The assumption ``cutoff_distance`` and calibration rest on: the
    rate does not rise with distance, so past the first distance with no
    key there is none."""
    scenario = Scenario(
        source_kind=kind,
        signal_mu=min(ratio * mu2, 0.8),
        decoy_mu=mu2,
        odd_weight=odd_weight,
        system=SystemParams(
            detector_efficiency=detector_efficiency,
            dark_count=dark_count,
            misalignment=misalignment,
            ec_efficiency=ec_efficiency,
        ),
        finite_key=FiniteKeyConfig(method, 10.0 ** pulse_exponent),
    )
    positive = [evaluate_point(scenario, 25.0 * k).rate > 0.0 for k in range(25)]
    assert positive == sorted(positive, reverse=True)


def _plain_bisection(positive, steps):
    """``cutoff_distance``'s search as a standalone bisection from 0 and
    ``steps``, the index sequence a full-grid guess must reproduce."""
    if not positive(0):
        return -1
    lo, hi = 0, steps
    if positive(hi):
        return hi
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if positive(mid):
            lo = mid
        else:
            hi = mid
    return lo


@settings(max_examples=400, deadline=None)
@given(steps=st.integers(0, 300), data=st.data())
def test_bracketed_search_finds_the_flip_from_any_guess(steps, data):
    flip = data.draw(st.integers(-1, steps), label="flip")
    lo = data.draw(st.integers(-1, steps), label="lo")
    hi = data.draw(st.integers(0, steps + 1), label="hi")
    seen = []

    def positive(index):
        seen.append(index)
        return index <= flip

    assert _last_positive(positive, steps, lo, hi) == flip
    assert all(0 <= index <= steps for index in seen)
    assert len(seen) == len(set(seen))

    full, plain = [], []
    assert _last_positive(lambda k: full.append(k) or k <= flip, steps, 0, steps) == flip
    assert _plain_bisection(lambda k: plain.append(k) or k <= flip, steps) == flip
    # with one grid point the plain bisection checked index 0 twice
    assert full == (plain if steps else [0])


def test_cutoff_distance_evaluates_the_plain_bisection_distances(monkeypatch):
    scenario = small(
        source_kind=SourceKind.WCS, signal_mu=0.4, decoy_mu=0.07,
        finite_key=FiniteKeyConfig(FluctuationMethod.STANDARD, 1e13),
    )
    want = []
    index = _plain_bisection(
        lambda k: want.append(5.0 * k) or evaluate_point(scenario, 5.0 * k).rate > 0.0, 120
    )
    seen = []

    def recording(scenario, distance_km):
        seen.append(distance_km)
        return evaluate_point(scenario, distance_km)

    monkeypatch.setattr(mdiqkd.sweep, "evaluate_point", recording)
    assert cutoff_distance(scenario, max_km=600.0, step_km=5.0) == 5.0 * index
    assert seen == want


_CALIBRATE = {"window": (170.0, 230.0), "bounds": (1e12, 1e16), "start": 1e14, "step_km": 5.0, "max_km": 600.0}
_WCS = replace(
    Scenario(), source_kind=SourceKind.WCS, signal_mu=0.4, decoy_mu=0.07,
    finite_key=FiniteKeyConfig(FluctuationMethod.STANDARD, 1e14),
)
_CATS = {"window": (450.0, 470.0)}
_CALIBRATION_CASES = {
    # the four benchmark intensity pairs
    "wcs 0.4/0.07": (_WCS, {}),
    "wcs 0.39/0.069": (replace(_WCS, signal_mu=0.39, decoy_mu=0.069), {}),
    "wcs 0.395/0.071": (replace(_WCS, signal_mu=0.395, decoy_mu=0.071), {}),
    "wcs 0.405/0.069": (replace(_WCS, signal_mu=0.405, decoy_mu=0.069), {}),
    "css": (replace(_WCS, source_kind=SourceKind.CSS, signal_mu=0.1, decoy_mu=0.01), _CATS),
    "nonideal css": (
        replace(_WCS, source_kind=SourceKind.NONIDEAL_CSS, signal_mu=0.1, decoy_mu=0.01),
        {"window": (420.0, 440.0)},
    ),
    "sps": (replace(_WCS, source_kind=SourceKind.SPS), _CATS),
    "chernoff": (replace(_WCS, finite_key=FiniteKeyConfig(FluctuationMethod.CHERNOFF)), {}),
    "window above the upper bound": (_WCS, {"window": (500.0, 550.0)}),
    "window below the lower bound": (_WCS, {"window": (0.0, 20.0)}),
    "no key at any bound": (_WCS, {"bounds": (1.0, 1e3)}),
    "from one pulse pair": (_WCS, {"bounds": (1.0, 1e16), "start": 1.0}),
    "window between grid points": (_WCS, {"window": (231.0, 234.0)}),
    "start inside the window": (_WCS, {"window": (100.0, 400.0)}),
    "more grid points than a C index holds": (_WCS, {"step_km": 1e-17}),
    # edges that the step rules treat specially
    "no lower edge": (_WCS, {"window": (-math.inf, 230.0)}),
    "no upper edge": (_WCS, {"window": (170.0, math.inf)}),
    "window of no key only": (_WCS, {"window": (-5.0, -1.0)}),
    "window beyond max_km": (_WCS, {"window": (700.0, 800.0)}),
}


@pytest.mark.parametrize("case", list(_CALIBRATION_CASES))
def test_calibration_equals_independent_searches(case):
    """Deciding each step at a window edge changes the cost, not the result."""
    scenario, updates = _CALIBRATION_CASES[case]
    kwargs = {**_CALIBRATE, **updates}
    got = calibrate_pulse_pairs(scenario, **kwargs)
    assert repr(got) == repr(oracle_calibrate_pulse_pairs(scenario, **kwargs))


# Edges on and between grid points (of the 5, 10 and 25 km steps), the
# sentinels of "no key" and unbounded sides.
_EDGES = st.one_of(
    st.sampled_from([-math.inf, -5.0, -1.0, -0.5, 0.0, math.inf]),
    st.integers(-2, 140).map(lambda k: 5.0 * k),
    st.floats(-10.0, 700.0),
)


@settings(max_examples=600, deadline=None)
@given(
    case=st.sampled_from(["wcs 0.4/0.07", "css", "sps", "chernoff"]),
    edges=st.tuples(_EDGES, _EDGES).map(sorted),
    low_exponent=st.floats(0.0, 17.0),
    decades=st.floats(0.0, 6.0),
    start_exponent=st.floats(-2.0, 19.0),
    step_km=st.one_of(st.sampled_from([5.0, 10.0, 25.0]), st.floats(5.0, 25.0)),
    max_km=st.floats(0.0, 601.0),
)
def test_calibration_matches_independent_searches_on_random_windows(
    case, edges, low_exponent, decades, start_exponent, step_km, max_km
):
    kwargs = {
        "window": tuple(edges),
        "bounds": (10.0 ** low_exponent, 10.0 ** (low_exponent + decades)),
        "start": 10.0 ** start_exponent,
        "step_km": step_km,
        "max_km": max_km,
    }
    scenario = _CALIBRATION_CASES[case][0]
    got = calibrate_pulse_pairs(scenario, **kwargs)
    assert repr(got) == repr(oracle_calibrate_pulse_pairs(scenario, **kwargs))


def test_calibration_searches_each_point_once(monkeypatch):
    seen = []

    def recording(scenario, distance_km):
        seen.append((scenario.finite_key.pulse_pairs, distance_km))
        return evaluate_point(scenario, distance_km)

    monkeypatch.setattr(mdiqkd.sweep, "evaluate_point", recording)
    result = calibrate_pulse_pairs(_WCS, **_CALIBRATE)
    assert result.in_window and result.cutoff_km == 230.0
    # independent searches at every visited count made 116 evaluations,
    # reusing the cutoffs found made 50; one evaluation per step at a
    # window edge makes 15 at 6 distances
    assert len(seen) <= 16
    assert len({distance for _, distance in seen}) <= 7
    assert len(set(seen)) == len(seen)


def test_calibration_builds_only_the_y1_blocks_the_light_reaches(monkeypatch):
    """Light arriving at 170-235 km needs at most 7 photon numbers per
    side, so calibration builds a few small Y1 blocks, not the
    16 x 16 table of the cutoff."""
    built = set()
    blocks = mdiqkd.bsm._y1_block

    def recording(dark_count, rows, cols):
        built.add((dark_count, rows, cols))
        return blocks(dark_count, rows, cols)

    for cache in (blocks, _observed, _cached_gains):
        cache.cache_clear()
    monkeypatch.setattr(mdiqkd.bsm, "_y1_block", recording)
    calibrate_pulse_pairs(_WCS, **_CALIBRATE)
    assert blocks.cache_info().misses == len(built)
    assert max(max(rows, cols) for _, rows, cols in built) <= 7
    assert sum(rows * cols for _, rows, cols in built) <= 110


@pytest.mark.parametrize(
    "kwargs, name",
    [
        ({"step_km": 0.0}, "step_km"),
        ({"step_km": -5.0}, "step_km"),
        ({"step_km": math.nan}, "step_km"),
        ({"step_km": math.inf}, "step_km"),
        ({"max_km": math.nan}, "max_km"),
        ({"max_km": math.inf}, "max_km"),
        ({"max_km": -5.0}, "max_km"),
        ({"max_km": 1e300, "step_km": 1e-300}, "max_km"),
    ],
)
def test_search_grid_arguments_are_validated(kwargs, name):
    for search in (cutoff_distance, calibrate_pulse_pairs):
        with pytest.raises(DomainError, match=name):
            search(_WCS, **kwargs)


@pytest.mark.parametrize(
    "kwargs, name",
    [
        ({"bounds": (1e16, 1e12)}, "bounds"),
        ({"bounds": (0.5, 1e16)}, "bounds"),
        ({"bounds": (1e12, math.inf)}, "bounds"),
        ({"bounds": (math.nan, 1e16)}, "bounds"),
        ({"window": (230.0, 170.0)}, "window"),
        ({"window": (math.nan, 230.0)}, "window"),
        ({"start": math.nan}, "start"),
    ],
)
def test_calibration_arguments_are_validated(monkeypatch, kwargs, name):
    def forbidden(scenario, distance_km):
        raise AssertionError("evaluated before the arguments were checked")

    monkeypatch.setattr(mdiqkd.sweep, "evaluate_point", forbidden)
    with pytest.raises(DomainError, match=name):
        calibrate_pulse_pairs(_WCS, **kwargs)


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
