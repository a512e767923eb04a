"""Decoy-state estimators versus exact single-photon quantities."""

import math
from dataclasses import replace

import pytest
from hypothesis import event, example, given, settings, strategies as st

import mdiqkd.sweep
from _oracles import decoy_certificate, oracle_css_y11
from mdiqkd import (
    ConfigError,
    CutoffError,
    DomainError,
    FiniteKeyConfig,
    FLAG_CLAMPED,
    FLAG_ERROR_ABOVE_HALF,
    FluctuationMethod,
    GainSet,
    Scenario,
    SourceKind,
    SourceSpec,
    SystemParams,
    evaluate_point,
    gains,
    true_single_photon_quantities,
    yield_tables,
)
from mdiqkd.decoy import (
    channels,
    estimate,
    generic_y11_bound,
    vacuum_substituted_gain,
)

CSS_SIGNAL, CSS_DECOY = SourceSpec.css(0.1), SourceSpec.css(0.01)


def _table(distance_km: float, cutoff: int = 15):
    system = SystemParams(distance_km=distance_km)
    return yield_tables(system.detector_params(), cutoff), system.misalignment


def _inputs(kind: SourceKind, mu1: float, mu2: float, distance_km: float, odd_weight=0.7,
            cutoff: int = 15):
    """``estimate``'s (signal spec, decoy spec, gains), with the gains of
    every channel the kind reads."""
    table, e_d = _table(distance_km, cutoff)
    spec = Scenario(source_kind=kind, odd_weight=odd_weight).signal_spec
    specs = {"s": spec(mu1), "d": spec(mu2), "0": SourceSpec.vacuum()}
    channel_gains = {
        c: gains(specs[c[0]], specs[c[1]], table, e_d) for c in channels(specs["s"])
    }
    return (specs["s"], specs["d"], channel_gains), table, e_d


@pytest.mark.parametrize("distance_km", [0.0, 100.0, 300.0])
def test_one_decoy_brackets_truth(distance_km):
    inputs, table, e_d = _inputs(SourceKind.CSS, 0.1, 0.01, distance_km)
    bounds = estimate(*inputs)
    truth = true_single_photon_quantities(table, e_d)
    assert bounds.y11_lower <= truth.y11_z + 1e-12
    assert bounds.e11_upper >= truth.e11_x - 1e-12
    # odd-only statistics make the single-decoy bound very tight
    assert bounds.y11_lower >= 0.99 * truth.y11_z
    assert bounds.flags == frozenset()


@pytest.mark.parametrize("distance_km", [0.0, 100.0, 300.0])
@pytest.mark.parametrize(
    "kind,mu1,mu2",
    [(SourceKind.WCS, 0.4, 0.07), (SourceKind.NONIDEAL_CSS, 0.1, 0.01)],
)
def test_two_decoy_brackets_truth(kind, mu1, mu2, distance_km):
    inputs, table, e_d = _inputs(kind, mu1, mu2, distance_km)
    bounds = estimate(*inputs)
    truth = true_single_photon_quantities(table, e_d)
    assert bounds.y11_lower <= truth.y11_z + 1e-12
    assert bounds.e11_upper >= truth.e11_x - 1e-12
    assert bounds.y11_lower > 0.0


@pytest.mark.parametrize("distance_km", [0.0, 50.0, 100.0])
@pytest.mark.parametrize("mu2", [1e-8, 3e-8])
def test_faint_decoy_bound_reads_the_multi_photon_term(mu2, distance_km):
    """A decoy this faint has P2 below the emitted tail tolerance; without
    P2 the bound collapses to g_d / P1d^2, above the true yield."""
    system = SystemParams(dark_count=0.0, misalignment=0.0)
    scenario = Scenario(
        source_kind=SourceKind.WCS, signal_mu=0.4, decoy_mu=mu2, system=system, cutoff=20
    )
    point = evaluate_point(scenario, distance_km)
    table = yield_tables(replace(system, distance_km=distance_km).detector_params(), 1)
    assert point.y11_lower <= true_single_photon_quantities(table, 0.0).y11_z


@pytest.mark.parametrize(
    "kind, calls",
    [(SourceKind.WCS, 15), (SourceKind.NONIDEAL_CSS, 15), (SourceKind.CSS, 6), (SourceKind.SPS, 3)],
)
def test_estimate_applies_the_kernel_once_per_distinct_gain(monkeypatch, kind, calls):
    """The pipelines hand mirrored vacuum channels one shared GainSet,
    which gets one interval: 5 distinct gains of 7 channels for the
    vacuum-plus-decoy bound, 3 kernel calls per gain."""
    scenario = Scenario(source_kind=kind, signal_mu=0.4, decoy_mu=0.07)
    want = evaluate_point(scenario, 100.0)
    seen = []

    def counting(gain):
        seen.append(gain)
        return gain, gain

    monkeypatch.setattr(mdiqkd.sweep, "interval_kernel", lambda config: counting)
    assert evaluate_point(scenario, 100.0) == want
    assert len(seen) == calls


def test_single_photon_bounds_are_the_observed_gains():
    """A single-photon source is observed directly: no decoy algebra."""
    inputs, _, _ = _inputs(SourceKind.SPS, 0.0, 0.0, 100.0)
    signal = inputs[2]["ss"]
    bounds = estimate(*inputs)
    assert bounds.y11_lower == signal.total_z
    assert bounds.e11_upper == signal.error_weighted_x / signal.total_x
    assert bounds.flags == frozenset()


@pytest.mark.parametrize("r", [1e-3, 0.1])
@pytest.mark.parametrize("distance_km", [0.0, 100.0, 250.0])
@pytest.mark.parametrize(
    "kind,mu1,mu2",
    [
        (SourceKind.WCS, 0.4, 0.07),
        (SourceKind.NONIDEAL_CSS, 0.1, 0.01),
        (SourceKind.CSS, 0.1, 0.01),
        (SourceKind.SPS, 0.0, 0.0),
    ],
)
def test_widening_one_gain_never_tightens_the_bounds(kind, mu1, mu2, distance_km, r):
    """Each observed gain is read at the endpoint of its interval that
    weakens the bounds: widening any one of them to (g (1 - r), g (1 + r))
    never raises y11_lower and never lowers e11_upper."""
    inputs, _, _ = _inputs(kind, mu1, mu2, distance_km)
    exact = estimate(*inputs)
    for channel, g in inputs[2].items():
        for field in ("total_z", "total_x", "error_weighted_x"):
            value = getattr(g, field)

            def widened(gain):
                return (gain * (1.0 - r), gain * (1.0 + r)) if gain == value else (gain, gain)

            bounds = estimate(*inputs, widened)
            assert bounds.y11_lower <= exact.y11_lower, (channel, field)
            assert bounds.e11_upper >= exact.e11_upper, (channel, field)


_KINDS = (SourceKind.SPS, SourceKind.CSS, SourceKind.NONIDEAL_CSS, SourceKind.WCS)


@st.composite
def _intensities(draw):
    """(mu1, mu2) over the optimization grids' range: decoys from 0.005,
    signals at least 5 % brighter."""
    mu2 = draw(st.floats(0.005, 0.5))
    return draw(st.floats(1.05 * mu2, 1.0)), mu2


def _bracketing_point(kind, intensities, odd_weight, efficiency, dark_count,
                      misalignment, distance_km):
    """Asymptotic bounds at one point and the exact (1, 1) values."""
    system = SystemParams(
        detector_efficiency=efficiency, dark_count=dark_count, misalignment=misalignment
    )
    mu1, mu2 = intensities
    scenario = Scenario(
        source_kind=kind, signal_mu=mu1, decoy_mu=mu2, odd_weight=odd_weight,
        system=system, cutoff=20,
    )
    point = evaluate_point(scenario, distance_km)
    table = yield_tables(replace(system, distance_km=distance_km).detector_params(), 1)
    return point, true_single_photon_quantities(table, misalignment)


@settings(max_examples=200, deadline=None)
@given(
    kind=st.sampled_from(_KINDS),
    intensities=_intensities(),
    odd_weight=st.floats(0.1, 0.95),
    efficiency=st.floats(0.01, 1.0),
    dark_count=st.one_of(st.just(0.0), st.floats(1e-12, 1e-3)),
    misalignment=st.floats(0.0, 0.5),
    distance_km=st.floats(0.0, 400.0),
)
def test_decoy_bounds_bracket_truth_property(
    kind, intensities, odd_weight, efficiency, dark_count, misalignment, distance_km
):
    """y11_lower <= true y11 and, where y11_lower > 0, e11_upper >= true
    e11, exactly, for every source family."""
    point, truth = _bracketing_point(
        kind, intensities, odd_weight, efficiency, dark_count, misalignment, distance_km
    )
    assert point.y11_lower <= truth.y11_z
    if point.y11_lower > 0.0:
        assert point.e11_upper >= truth.e11_x


@settings(max_examples=200, deadline=None)
@given(intensities=_intensities(), distance_km=st.floats(0.0, 400.0))
def test_css_bound_is_the_one_decoy_formula_property(intensities, distance_km):
    """The two-point bound in (P1, P3) with P0 = 0 is the paper's one-decoy
    formula for odd cat sources."""
    mu1, mu2 = intensities
    inputs, _, _ = _inputs(SourceKind.CSS, mu1, mu2, distance_km, cutoff=20)
    expected = oracle_css_y11(mu1, mu2, inputs[2]["ss"].total_z, inputs[2]["dd"].total_z)
    assert estimate(*inputs).y11_lower == pytest.approx(max(0.0, expected), rel=1e-13)


# Outside the property's intensity range rounding breaks the bracket.
# Both bounds cancel two terms: near-equal intensities amplify the
# rounding of the gains by about mu2 / (mu1 - mu2), and at mu2 ~ 5e-4 the
# bound's slack (order mu1^2 mu2^2) is below that rounding.  Which points
# cross depends on the last bits of the gains, so a change in how they
# are rounded can move a case to a neighbouring point.
@pytest.mark.xfail(
    strict=True, raises=AssertionError, reason="float decoy algebra is not rounded outward"
)
@pytest.mark.parametrize(
    "kind,intensities,efficiency,dark_count,misalignment,distance_km",
    [
        (SourceKind.CSS, (0.00051, 0.0005), 0.95, 0.0, 0.0, 0.0078125),
        (SourceKind.CSS, (0.0100000001, 0.01), 0.5, 1e-7, 0.015, 51.0),
    ],
)
def test_decoy_bounds_bracket_truth_fails_when_rounding_dominates(
    kind, intensities, efficiency, dark_count, misalignment, distance_km
):
    point, truth = _bracketing_point(
        kind, intensities, 0.7, efficiency, dark_count, misalignment, distance_km
    )
    assert point.y11_lower <= truth.y11_z


# Faint, near-equal wcs pairs on the default hardware (asymptotic) whose
# gains cancel to rounding: the unguarded algebra reported y11_lower of
# 3.9965087576533196 and 8.0312195123197707 here.
DIGITLESS_POINTS = [
    ((4.19e-11, 4.189999992458e-11), 100.0),
    ((3e-11, 2.9999999946e-11), 0.0),
]


@pytest.mark.parametrize("intensities,distance_km", DIGITLESS_POINTS)
def test_yield_bound_above_one_is_a_domain_error(intensities, distance_km):
    mu1, mu2 = intensities
    scenario = Scenario(source_kind=SourceKind.WCS, signal_mu=mu1, decoy_mu=mu2)
    with pytest.raises(DomainError, match="bound_without_digits: .* exceed 1"):
        evaluate_point(scenario, distance_km)


def _faint_detector(efficiency: float) -> Scenario:
    """The default css scenario behind detectors of ``efficiency`` with no
    dark counts, so every gain scales with efficiency squared."""
    system = replace(SystemParams(), detector_efficiency=efficiency, dark_count=0.0)
    return Scenario(system=system)


def test_a_subnormal_gain_is_a_domain_error():
    """At efficiency 1e-160 the gains are subnormal (about 5e-321), and the
    two-point algebra gave y11 = 6.0e-321 above the exact 5e-321 with a
    positive rate; the bound now refuses to run on them."""
    with pytest.raises(DomainError, match="bound_without_digits: .* subnormal"):
        evaluate_point(_faint_detector(1e-160), 0.0)


def test_a_negative_subnormal_residue_is_not_refused():
    """A subnormal dark count leaves the decoy's Z-basis g at 525 km as a
    cancellation residue of -1.3e-318: only a positive subnormal raises."""
    scenario = Scenario(
        source_kind=SourceKind.NONIDEAL_CSS, signal_mu=0.25, decoy_mu=0.125, odd_weight=0.5,
        system=SystemParams(detector_efficiency=1.0, dark_count=2.2250738585e-313,
                            misalignment=0.0),
        finite_key=FiniteKeyConfig(FluctuationMethod.CHERNOFF, 1e8),
    )
    assert evaluate_point(scenario, 525.0).rate == 0.0


def test_gains_just_above_the_subnormal_range_give_a_sound_bound():
    scenario = _faint_detector(1e-150)
    point = evaluate_point(scenario, 0.0)
    truth = true_single_photon_quantities(
        yield_tables(scenario.system.detector_params(), scenario.cutoff),
        scenario.system.misalignment,
    )
    assert 0.0 < point.y11_lower <= truth.y11_z
    assert point.rate > 0.0


@settings(max_examples=200, deadline=None)
@given(
    mu2=st.floats(1e-12, 1e-6),
    excess=st.floats(1e-10, 1e-6),
    distance_km=st.floats(0.0, 400.0),
    method=st.sampled_from(list(FluctuationMethod)),
)
# Points where the unguarded algebra gave 14.4 and 255.6.
@example(5.198112697411633e-12, 3.2624253147713427e-08, 40.46957602397914,
         FluctuationMethod.ASYMPTOTIC)
@example(6.438271342806498e-12, 1.1914032825024316e-09, 35.603370746033924,
         FluctuationMethod.ASYMPTOTIC)
def test_faint_near_equal_pairs_report_no_yield_above_one(mu2, excess, distance_km, method):
    """Each point returns a yield bound in [0, 1] or takes the exit-3
    path; none reports a bound that no yield can reach."""
    scenario = Scenario(
        source_kind=SourceKind.WCS, signal_mu=mu2 * (1.0 + excess), decoy_mu=mu2,
        finite_key=FiniteKeyConfig(method),
    )
    try:
        point = evaluate_point(scenario, distance_km)
    except (DomainError, CutoffError):
        return
    assert 0.0 <= point.y11_lower <= 1.0


# Intensities from 1e-15 to past the photon cap at 512.
_FUZZ_MU = st.floats(-15.0, math.log10(600.0)).map(lambda e: 10.0**e)


@settings(max_examples=300, deadline=None)
@given(
    kind=st.sampled_from(
        [SourceKind.SPS, SourceKind.CSS, SourceKind.NONIDEAL_CSS, SourceKind.WCS]
    ),
    mu1=_FUZZ_MU,
    ratio=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
    odd_weight=st.floats(0.0, 1.0, exclude_min=True),
    method=st.sampled_from(list(FluctuationMethod)),
    pulse_pairs=st.floats(0.0, 20.0).map(lambda e: 10.0**e),
    sigmas=st.floats(-300.0, 300.0).map(lambda e: 10.0**e),
    epsilon=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
    cutoff=st.integers(1, 20),
    dark=st.one_of(st.just(0.0), st.floats(1e-12, 0.1)),
    e_d=st.floats(0.0, 0.5),
    distance_km=st.floats(0.0, 500.0),
)
# Without dark counts or misalignment a faint cat's y11 bound, not rounded
# outward, gave q11_z = 0.08 above q_z = 0.07999999999999996.
@example(SourceKind.CSS, 1e-08, 0.5, 1.0, FluctuationMethod.ASYMPTOTIC, 1.0, 1.0, 0.5, 1,
         0.0, 0.0, 0.0)
def test_every_validated_point_is_sound_or_a_named_error(
    kind, mu1, ratio, odd_weight, method, pulse_pairs, sigmas, epsilon, cutoff,
    dark, e_d, distance_km,
):
    """Any input either gives a point or raises ConfigError, DomainError
    or CutoffError.  A point has no NaN, a yield bound in [0, 1], and a
    rate that is the clamp of the unclamped rate and at most the gain."""
    try:
        scenario = Scenario(
            source_kind=kind, signal_mu=mu1, decoy_mu=mu1 * ratio, odd_weight=odd_weight,
            system=SystemParams(dark_count=dark, misalignment=e_d),
            finite_key=FiniteKeyConfig(method, pulse_pairs, sigmas, epsilon),
            cutoff=cutoff,
        )
        point = evaluate_point(scenario, distance_km)
    except (ConfigError, DomainError, CutoffError) as exc:
        event(type(exc).__name__)
        return
    event("point")
    values = (
        point.q_z, point.qber_z, point.y11_lower, point.e11_upper, point.q11_z,
        point.rate, point.rate_unclamped,
    )
    assert not any(math.isnan(v) for v in values), point
    assert 0.0 <= point.y11_lower <= 1.0
    assert point.rate <= point.q_z
    assert point.rate == max(0.0, point.rate_unclamped)


# Every fourth point of the optimize-warm benchmark's mu grids
# (perfbench/workloads.py), for each of its three kinds.
_GRID_MU1 = [round(0.05 + 0.025 * k, 10) for k in range(0, 23, 4)]
_GRID_MU2 = [round(0.005 + 0.005 * k, 10) for k in range(0, 20, 4)]
_CERTIFIED = [
    (SourceSpec.wcs(0.4), SourceSpec.wcs(0.07)),
    (SourceSpec.css(0.1), SourceSpec.css(0.01)),
    (SourceSpec.css(0.5), SourceSpec.css(0.3)),
    (SourceSpec.nonideal_css(0.1, 0.7), SourceSpec.nonideal_css(0.01, 0.7)),
    (SourceSpec.nonideal_css(0.1, 0.999), SourceSpec.nonideal_css(0.01, 0.999)),
] + [
    (make(mu1), make(mu2))
    for make in (SourceSpec.css, lambda mu: SourceSpec.nonideal_css(mu, 0.7), SourceSpec.wcs)
    for mu1 in _GRID_MU1
    for mu2 in _GRID_MU2
    if mu1 > mu2
]


@pytest.mark.parametrize("spec_signal,spec_decoy", _CERTIFIED, ids=lambda s: f"{s.kind.value}-{s.mu}")
def test_the_two_point_bound_has_a_dual_certificate(spec_signal, spec_decoy):
    """The y11 bound puts weight 1 on the (1, 1) pair and none above 0 on
    any other pair up to 23 photons a side, and the e11 numerator puts
    none below 0 on any pair, at 50 digits: the bounds hold for every
    yield table that gives the observed gains, not only the model's."""
    y11, e11 = decoy_certificate(spec_signal, spec_decoy)
    for i, row in enumerate(y11):
        for j, weight in enumerate(row):
            if (i, j) == (1, 1):
                assert abs(weight - 1) <= 1e-40
            else:
                assert weight <= 1e-40, (i, j, weight)
    assert all(weight >= 0 for row in e11 for weight in row)


def test_two_decoy_requires_vacuum_channels():
    (signal, decoy, channel_gains), _, _ = _inputs(SourceKind.WCS, 0.4, 0.07, 0.0)
    without_vacuum = {c: g for c, g in channel_gains.items() if c != "00"}
    with pytest.raises(DomainError, match="needs the gains of channel\\(s\\) 00"):
        estimate(signal, decoy, without_vacuum)


def test_vacuum_signal_has_no_estimator():
    dv = SourceSpec.vacuum()
    with pytest.raises(DomainError, match="no decoy estimator for a vacuum signal source"):
        estimate(dv, dv, {})


def test_odd_only_imperfect_cat_gets_the_css_bounds():
    """An imperfect cat with odd weight 1 emits no even-photon sector: it
    is the ideal cat, read in (P1, P3) without vacuum channels, and every
    method gives it the css numbers bitwise."""
    assert channels(SourceSpec.nonideal_css(0.1, 1.0)) == ("ss", "dd")
    for method in FluctuationMethod:
        for distance_km in (0.0, 50.0, 200.0, 333.0):
            points = [
                evaluate_point(
                    Scenario(source_kind=kind, odd_weight=1.0,
                             finite_key=FiniteKeyConfig(method, 1e14)),
                    distance_km,
                )
                for kind in (SourceKind.CSS, SourceKind.NONIDEAL_CSS)
            ]
            fields = [(p.rate, p.y11_lower, p.e11_upper, p.q_z, p.qber_z) for p in points]
            assert fields[0] == fields[1], (method, distance_km)
            assert points[0].y11_lower > 0.0


def test_vanished_multi_photon_term_is_named():
    """Pm of both intensities underflows to 0 for a faint cat; the error
    says so rather than calling the (P1, Pm) rows proportional."""
    signal, decoy = SourceSpec.css(1e-170), SourceSpec.css(1e-171)
    assert signal.emitted_head == (0.0, 1.0, 0.0)
    g = GainSet(total_z=1e-3, error_weighted_z=1e-5, total_x=1e-3, error_weighted_x=1e-5)
    with pytest.raises(
        DomainError,
        match="^denominator_ill_conditioned: the multi-photon probability Pm "
        "vanished at both intensities$",
    ):
        estimate(signal, decoy, {"ss": g, "dd": g})


def test_intensity_ordering_is_validated():
    table, e_d = _table(0.0)
    g = gains(CSS_SIGNAL, CSS_SIGNAL, table, e_d)
    ordering = "intensities must satisfy mu_signal > mu_decoy > 0"
    with pytest.raises(DomainError, match=ordering):
        estimate(CSS_DECOY, CSS_SIGNAL, {"ss": g, "dd": g})
    with pytest.raises(DomainError, match=ordering):
        estimate(CSS_SIGNAL, SourceSpec.css(0.0), {"ss": g, "dd": g})


def _fabricated_inputs(q_signal_z, q_decoy_z, q_signal_x, q_decoy_x, eq_decoy_x):
    def gain_set(total_z, total_x, eq_x):
        return GainSet(
            total_z=total_z,
            error_weighted_z=0.015 * total_z,
            total_x=total_x,
            error_weighted_x=eq_x,
        )

    return CSS_SIGNAL, CSS_DECOY, {
        "ss": gain_set(q_signal_z, q_signal_x, 0.015 * q_signal_x),
        "dd": gain_set(q_decoy_z, q_decoy_x, eq_decoy_x),
    }


def test_negative_yield_bound_is_clamped_and_flagged():
    # a huge signal gain with a negligible decoy gain drives the
    # estimate negative
    inputs = _fabricated_inputs(0.9, 1e-9, 0.9, 1e-9, 1e-11)
    bounds = estimate(*inputs)
    assert bounds.y11_lower == 0.0
    assert FLAG_CLAMPED in bounds.flags
    assert math.isinf(bounds.e11_upper)


def test_error_bound_above_half_is_flagged():
    # error-weighted gain close to the decoy gain forces e11 toward 1
    inputs = _fabricated_inputs(0.08, 0.008, 0.08, 0.008, 0.0079)
    bounds = estimate(*inputs)
    assert bounds.y11_lower > 0.0
    assert bounds.e11_upper > 0.5
    assert FLAG_ERROR_ABOVE_HALF in bounds.flags


def test_css_bound_scalar_identity():
    """The bound is exact for cat inputs (P0, P1, P3) when gains contain
    only the (1,1) term."""
    mu1, mu2 = 0.1, 0.01
    y11 = 0.08
    cat = lambda mu: (0.0, mu / math.sinh(mu), mu**3 / (6.0 * math.sinh(mu)))
    q1 = cat(mu1)[1] ** 2 * y11
    q2 = cat(mu2)[1] ** 2 * y11
    got = generic_y11_bound(cat(mu1), cat(mu2), q1, q2)
    assert got == pytest.approx(y11, rel=1e-12)


def test_generic_bound_scalar_identity():
    """Exact recovery when only (1,1) populates the vacuum-substituted
    gains."""
    y11 = 0.05
    p_sig = (0.67, 0.268, 0.054)
    p_dec = (0.93, 0.065, 0.0023)
    g_sig = p_sig[1] ** 2 * y11
    g_dec = p_dec[1] ** 2 * y11
    got = generic_y11_bound(p_sig, p_dec, g_sig, g_dec)
    assert got == pytest.approx(y11, rel=1e-12)


def test_generic_bound_degeneracy_detection():
    with pytest.raises(DomainError):
        generic_y11_bound((0.9, 0.1, 0.0), (0.99, 0.01, 0.0), 1e-3, 1e-4)
    # proportional (P1, Pm) rows are singular even when nonzero
    with pytest.raises(DomainError):
        generic_y11_bound((0.8, 0.1, 0.05), (0.9, 0.05, 0.025), 1e-3, 1e-4)
    # a determinant that is sound but too small to divide by once scaled
    # by P1(signal) P1(decoy), as for wcs (460, 0.07)
    with pytest.raises(DomainError, match="denominator_underflow"):
        generic_y11_bound((0.0, 1e-197, 1e-195), (0.93, 0.065, 2.3e-3), 1e-3, 1e-4)


def test_vacuum_substitution_removes_zero_photon_rows():
    # contract a rank-one yield model exactly
    p0 = 0.67
    q_mm, q_m0, q_0m, q_00 = 0.02, 0.005, 0.004, 0.001
    got = vacuum_substituted_gain(q_mm, q_m0, q_0m, q_00, p0)
    assert got == pytest.approx(
        q_mm - p0 * q_m0 - p0 * q_0m + p0 * p0 * q_00, rel=1e-15
    )
