"""End-to-end sweep pipelines, optimization and CSV output."""

import io
import math
from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

import mdiqkd.bsm
import mdiqkd.rates
import mdiqkd.sources
import mdiqkd.sweep
from mdiqkd import (
    DetectorParams,
    DistanceGrid,
    DomainError,
    FiniteKeyConfig,
    FluctuationMethod,
    GainSet,
    KeyRatePoint,
    Scenario,
    SourceKind,
    SourceSpec,
    SystemParams,
    YieldTable,
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
from mdiqkd.config import _SIGNAL_KINDS
from mdiqkd.decoy import channels
from mdiqkd.sweep import (
    CSV_COLUMNS,
    _intensity,
    _last_positive,
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


def _entry_key(scenario, distance_km):
    """The memo key of the scenario's signal intensity at one distance."""
    system = scenario.system
    return (
        scenario.signal_spec(), system.efficiency_at(distance_km), system.dark_count,
        scenario.cutoff, system.misalignment,
    )


def test_memoised_gains_equal_a_fresh_contraction():
    """An intensity's entry holds its diagonal gain and its gain with the
    vacuum where the estimator reads vacuum channels, each bitwise equal
    to a fresh contraction."""
    table = yield_tables(DetectorParams(0.037, 1e-7), 15)
    for spec in (
        SourceSpec.css(0.1), SourceSpec.nonideal_css(0.1, 0.7), SourceSpec.wcs(0.4),
        SourceSpec.sps(), SourceSpec.vacuum(),
    ):
        key = (spec, 0.037, 1e-7, 15, 0.015)
        first = _intensity(*key)
        assert _intensity(*key) is first
        diagonal, with_vacuum = first
        # GainSet compares its float fields with ==
        assert diagonal == gains(spec, spec, table, 0.015)
        if "00" in channels(spec):
            assert with_vacuum == gains(spec, SourceSpec.vacuum(), table, 0.015)
        else:
            assert with_vacuum is None


def test_per_point_memo_is_keyed_by_every_input():
    """Every point reads the per-intensity memo, keyed by kind, mu, odd
    weight, efficiency, dark count, cutoff and misalignment."""
    base = small(
        source_kind=SourceKind.NONIDEAL_CSS,
        finite_key=FiniteKeyConfig(FluctuationMethod.STANDARD, 1e12),
    )
    _intensity.cache_clear()
    first = evaluate_point(base, 60.0)
    # signal, decoy and vacuum
    assert _intensity.cache_info().misses == 3
    # a hit returns the memoised entry itself
    entry = _intensity(*_entry_key(base, 60.0))
    assert _intensity(*_entry_key(base, 60.0)) is entry
    again = evaluate_point(replace(base, finite_key=FiniteKeyConfig()), 60.0)
    assert _intensity.cache_info().misses == 3
    assert again.gains_signal is entry[0] is first.gains_signal
    # and it equals a fresh computation
    _intensity.cache_clear()
    assert evaluate_point(base, 60.0) == first
    assert _intensity(*_entry_key(base, 60.0)) == entry

    wcs = replace(base, source_kind=SourceKind.WCS)
    variants = {
        "kind": (wcs, 60.0),
        "signal mu": (replace(base, signal_mu=0.2), 60.0),
        "decoy mu": (replace(base, decoy_mu=0.02), 60.0),
        "odd weight": (replace(base, odd_weight=0.8), 60.0),
        "distance": (base, 61.0),
        "efficiency": (replace(base, system=replace(base.system, detector_efficiency=0.5)), 60.0),
        "dark count": (replace(base, system=replace(base.system, dark_count=2e-7)), 60.0),
        "cutoff": (replace(base, cutoff=12), 60.0),
        "misalignment": (replace(base, system=replace(base.system, misalignment=0.02)), 60.0),
    }
    # a new intensity misses once; a new distance or efficiency misses for
    # the signal and decoy entries, the vacuum's serving every efficiency;
    # any other new setting misses for all three entries
    new = {"kind": 2, "signal mu": 1, "decoy mu": 1, "odd weight": 2, "distance": 2,
           "efficiency": 2}
    for field, (scenario, distance_km) in variants.items():
        misses = _intensity.cache_info().misses
        evaluate_point(scenario, distance_km)
        assert _intensity.cache_info().misses == misses + new.get(field, 3), field


def test_optimize_misses_the_memo_once_per_intensity_and_distance():
    """One pass over the benchmark's optimize grids builds each
    intensity's entry once per distance, and the vacuum's once where the
    estimator reads it."""
    mu1_values = tuple(round(0.05 + 0.025 * k, 10) for k in range(23))
    mu2_values = tuple(round(0.005 + 0.005 * k, 10) for k in range(20))
    intensities = len(set(mu1_values) | set(mu2_values))
    for kind in (SourceKind.CSS, SourceKind.NONIDEAL_CSS, SourceKind.WCS):
        scenario = Scenario(
            source_kind=kind,
            grid=DistanceGrid(0.0, 200.0, 50.0),
            finite_key=FiniteKeyConfig(FluctuationMethod.CHERNOFF, 1e14),
            mu1_candidates=mu1_values,
            mu2_candidates=mu2_values,
        )
        _intensity.cache_clear()
        optimize_intensities(scenario)
        distances = len(scenario.grid.distances())
        reads_vacuum = "00" in channels(scenario.signal_spec())
        assert _intensity.cache_info().misses == intensities * distances + reads_vacuum, kind


def test_each_intensity_entry_reads_its_arriving_light_once(monkeypatch):
    """``transmitted`` runs once per ``_intensity`` miss, through ``sweep``
    and ``rates`` alike: on the compare-cold benchmark grid (288 entries)
    and on the calibrate-cold benchmark at 0.4/0.07 (5 entries)."""
    calls = []
    read = mdiqkd.sources.transmitted

    def counting(*args):
        calls.append(args)
        return read(*args)

    for module in (mdiqkd.sweep, mdiqkd.rates):
        monkeypatch.setattr(module, "transmitted", counting)
    compare_cold = Scenario(
        grid=DistanceGrid(0.0, 400.0, 10.0),
        finite_key=FiniteKeyConfig(FluctuationMethod.STANDARD, 1e14),
    )
    runs = {
        "compare-cold": (lambda: compare_sources(compare_cold), 288),
        "calibrate-cold": (lambda: calibrate_pulse_pairs(_WCS, **_CALIBRATE), 5),
    }
    for name, (run, entries) in runs.items():
        _intensity.cache_clear()
        calls.clear()
        run()
        assert _intensity.cache_info().misses == entries, name
        assert len(calls) == len(set(calls)) == entries, name


@pytest.mark.parametrize("kind", [SourceKind.WCS, SourceKind.CSS, SourceKind.SPS])
def test_the_gain_path_builds_no_table_or_detector_record(monkeypatch, kind):
    """An evaluation contracts at the scenario's dark count: from cleared
    memos it builds neither a ``YieldTable`` nor a ``DetectorParams``,
    and it gives the point it gives without the patch."""
    scenario = {s.source_kind: s for s in comparison_scenarios(small())}[kind]
    want = evaluate_point(scenario, 60.0)

    def forbidden(cls, *args):
        raise AssertionError(f"{cls.__name__} built on the gain path")

    for cache in (_intensity, mdiqkd.bsm._y1_block):
        cache.cache_clear()
    for record in (YieldTable, DetectorParams):
        monkeypatch.setattr(record, "__new__", forbidden)
    assert evaluate_point(scenario, 60.0) == want


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


_GUARD_SOURCES = {
    "sps": {"source_kind": SourceKind.SPS},
    "css": {"source_kind": SourceKind.CSS},
    "nonideal_css": {"source_kind": SourceKind.NONIDEAL_CSS, "odd_weight": 0.7},
    "wcs": {"source_kind": SourceKind.WCS, "signal_mu": 0.4, "decoy_mu": 0.07},
}
# Every method, and Chernoff at N = 1e10, where the longer distances of
# each source are flagged (clamped yields, error bounds above 1/2).
_GUARD_STATISTICS = {
    "asymptotic": FiniteKeyConfig(),
    "standard": FiniteKeyConfig(FluctuationMethod.STANDARD, 1e14),
    "chernoff": FiniteKeyConfig(FluctuationMethod.CHERNOFF, 1e14),
    "chernoff 1e10": FiniteKeyConfig(FluctuationMethod.CHERNOFF, 1e10),
}


@pytest.mark.parametrize("statistics", list(_GUARD_STATISTICS))
@pytest.mark.parametrize("source", list(_GUARD_SOURCES))
def test_a_sweep_equals_its_points_evaluated_one_by_one(source, statistics):
    """A sweep shares one setup across its distances; every record equals
    the one ``evaluate_point`` builds from scratch."""
    scenario = Scenario(
        **_GUARD_SOURCES[source], grid=DistanceGrid(0.0, 600.0, 75.0),
        finite_key=_GUARD_STATISTICS[statistics],
    )
    points = run_sweep(scenario)
    assert points == [evaluate_point(scenario, d) for d in scenario.grid.distances()]
    if statistics == "chernoff 1e10":
        assert points[0].flags == frozenset() and points[-1].flags


@pytest.mark.parametrize("statistics", list(_GUARD_STATISTICS))
@pytest.mark.parametrize("source", ["css", "nonideal_css", "wcs"])
def test_optimize_picks_the_first_best_point_evaluated_one_by_one(source, statistics):
    """One setup per intensity pair gives, at every distance, the first
    best point in sorted pair order, over points evaluated from scratch;
    the zero rates at long distance tie, and the first pair wins."""
    scenario = Scenario(
        **_GUARD_SOURCES[source], grid=DistanceGrid(0.0, 600.0, 150.0),
        finite_key=_GUARD_STATISTICS[statistics],
        mu1_candidates=(0.4, 0.1, 0.05), mu2_candidates=(0.07, 0.01, 0.1),
    )
    pairs = [
        (mu1, mu2)
        for mu1 in sorted(scenario.mu1_candidates)
        for mu2 in sorted(scenario.mu2_candidates)
        if mu1 > mu2 > 0.0
    ]
    want = []
    for d in scenario.grid.distances():
        best = None
        for mu1, mu2 in pairs:
            point = evaluate_point(replace(scenario, signal_mu=mu1, decoy_mu=mu2), d)
            if best is None or point.rate > best.rate:
                best = point
        want.append(best)
    assert optimize_intensities(scenario) == want
    assert want[-1].rate == 0.0 and (want[-1].mu_signal, want[-1].mu_decoy) == pairs[0]


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
    kind=st.sampled_from(list(_SIGNAL_KINDS.values())),
    mu2=st.floats(0.005, 0.2),
    ratio=st.floats(1.2, 4.0),
    # at odd_weight 1 the nonideal cat is the css source, which kind covers
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
    # on a 0.1 km grid the last 2 % step in N moves the cutoff by more
    # than a grid step, so the final search starts past the lower edge + 1
    "final cutoff past the edge + 1": (
        _WCS, {"window": (240.0, 300.0), "start": 1e12, "step_km": 0.1}
    ),
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


def _recorded_calibration(monkeypatch, scenario, **kwargs):
    """The result and the (N, distance) points calibration evaluates,
    recorded at the function it calls."""
    seen = []
    counts = {}
    setup, evaluate = mdiqkd.sweep._setup, mdiqkd.sweep._evaluate

    def recording_setup(scenario, spec_signal, spec_decoy, finite_key):
        made = setup(scenario, spec_signal, spec_decoy, finite_key)
        counts[id(made)] = finite_key.pulse_pairs
        return made

    def recording(made, distance_km):
        seen.append((counts[id(made)], distance_km))
        return evaluate(made, distance_km)

    monkeypatch.setattr(mdiqkd.sweep, "_setup", recording_setup)
    monkeypatch.setattr(mdiqkd.sweep, "_evaluate", recording)
    result = calibrate_pulse_pairs(scenario, **kwargs)
    monkeypatch.undo()
    assert seen, "the recorder saw no evaluation"
    # one setup per pulse count
    assert len(counts) == len(set(counts.values()))
    return result, seen


def test_calibration_searches_each_point_once(monkeypatch):
    # independent searches at every visited count made 116 evaluations,
    # reusing the cutoffs found made 50, one evaluation per step at a
    # window edge made 15 at 6 distances; testing the final count beside
    # the edge that flipped makes 11 at the two edge distances
    for case in ("wcs 0.4/0.07", "wcs 0.39/0.069", "wcs 0.395/0.071", "wcs 0.405/0.069"):
        scenario = _CALIBRATION_CASES[case][0]
        result, seen = _recorded_calibration(monkeypatch, scenario, **_CALIBRATE)
        assert result.in_window and result.cutoff_km == 230.0, case
        assert len(seen) <= 11, case
        assert {distance for _, distance in seen} <= {230.0, 235.0}, case
        assert len(set(seen)) == len(seen), case


def test_calibration_builds_only_the_y1_blocks_the_light_reaches(monkeypatch):
    """Light arriving at 170-235 km needs at most 7 photon numbers per
    side, so calibration builds a few small Y1 blocks, not the
    16 x 16 table of the cutoff."""
    built = set()
    blocks = mdiqkd.bsm._y1_block

    def recording(dark_count, rows, cols):
        built.add((dark_count, rows, cols))
        return blocks(dark_count, rows, cols)

    for cache in (blocks, _intensity):
        cache.cache_clear()
    monkeypatch.setattr(mdiqkd.bsm, "_y1_block", recording)
    calibrate_pulse_pairs(_WCS, **_CALIBRATE)
    assert blocks.cache_info().misses == len(built)
    assert max(max(rows, cols) for _, rows, cols in built) <= 7
    assert sum(rows * cols for _, rows, cols in built) <= 110


# Evaluations per calibration before the final search started beside
# the edge that flipped, and after.
_EVALUATIONS = {
    "wcs 0.4/0.07": (15, 11),
    "css": (13, 10),
    "nonideal css": (13, 10),
    "sps": (13, 10),
    "from one pulse pair": (25, 23),
    "window between grid points": (16, 11),
    "no lower edge": (17, 11),
    "step_km 1e-3": (27, 28),
    "step_km 1e-6": (37, 38),
}


@pytest.mark.parametrize("case", list(_EVALUATIONS))
def test_edge_first_search_costs_at_most_one_extra_evaluation(monkeypatch, case):
    """Where the guess beside the edge misses (a fine grid), the final
    search pays one evaluation more than a bisection between the edges."""
    if case.startswith("step_km"):
        scenario, updates = _WCS, {"step_km": float(case.split()[1])}
    else:
        scenario, updates = _CALIBRATION_CASES[case]
    _, seen = _recorded_calibration(monkeypatch, scenario, **{**_CALIBRATE, **updates})
    before, after = _EVALUATIONS[case]
    assert len(seen) == after <= before + 1
    assert len(set(seen)) == len(seen)


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
    def forbidden(*args):
        raise AssertionError("evaluated before the arguments were checked")

    monkeypatch.setattr(mdiqkd.sweep, "_setup", forbidden)
    monkeypatch.setattr(mdiqkd.sweep, "_evaluate", forbidden)
    # the patched functions are the ones calibration evaluates through
    with pytest.raises(AssertionError, match="evaluated"):
        calibrate_pulse_pairs(_WCS)
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


def test_csv_row_formats_each_value_as_format_17g():
    """One row is format(float(value), ".17g") of each numeric column,
    joined by commas, for ints and the special floats too."""
    gains_signal = GainSet(5e-324, 0.0, 0.1, 0.0)
    for distance_km, mu1, y11, e11 in [(0, 0.1, -0.0, math.inf), (2.5, 1, math.nan, 1e300)]:
        point = KeyRatePoint(distance_km, "wcs", "standard", mu1, -0.0, gains_signal,
                             y11, e11, 0.0, 1 / 3, -1.0, frozenset())
        numbers = (distance_km, mu1, -0.0, 5e-324, 0.0, y11, e11, 1 / 3)
        want = [format(float(v), ".17g") for v in numbers]
        assert csv_rows([point])[1] == ",".join(want[:1] + ["wcs", "standard"] + want[1:])


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
