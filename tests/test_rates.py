"""System parameters, gain contraction and the key-rate formula."""

import math
from dataclasses import replace

import mpmath
import pytest
from hypothesis import example, given, settings, strategies as st

from mdiqkd import (
    CutoffError,
    DetectorParams,
    DomainError,
    GainSet,
    SourceSpec,
    SystemParams,
    binary_entropy,
    gains,
    key_rate,
    true_single_photon_quantities,
    yield_tables,
)
from mdiqkd.bsm import contract
from mdiqkd.sources import TAIL_TOLERANCE, transmitted

from _oracles import (
    dense_tables,
    oracle_distribution,
    oracle_emitted_cutoff,
    oracle_gain,
    oracle_wcs_gains,
)
from test_bsm import _SMALLEST_NONZERO, _bell_yield_tables
from test_sources import _SUBNORMAL_SLACK

WCS, VACUUM = SourceSpec.wcs(0.4), SourceSpec.vacuum()


def test_overall_efficiency_combines_detector_and_fiber():
    system = SystemParams(detector_efficiency=0.4, fiber_loss_db_km=0.2)
    # 0.4 * 10^(-0.2 * 100 / 20) = 0.4 * 0.1
    assert system.efficiency_at(100.0) == pytest.approx(0.04, rel=1e-15)
    assert SystemParams().efficiency_at(0.0) == pytest.approx(0.4, rel=1e-15)
    at_100 = replace(system, distance_km=100.0).detector_params()
    assert at_100.efficiency == system.efficiency_at(100.0)


def test_system_params_validation():
    with pytest.raises(DomainError):
        SystemParams(distance_km=-1.0)
    with pytest.raises(DomainError):
        SystemParams(detector_efficiency=0.0)
    with pytest.raises(DomainError):
        SystemParams(detector_efficiency=1.1)
    with pytest.raises(DomainError):
        SystemParams(dark_count=1.0)
    with pytest.raises(DomainError):
        SystemParams(fiber_loss_db_km=-0.1)
    with pytest.raises(DomainError):
        SystemParams(misalignment=1.5)
    with pytest.raises(DomainError):
        SystemParams(ec_efficiency=0.9)


@pytest.mark.parametrize(
    "field,value,named",
    [
        ("ec_efficiency", math.nan, "error-correction efficiency"),
        ("ec_efficiency", math.inf, "error-correction efficiency"),
        ("fiber_loss_db_km", math.nan, "fiber loss"),
        ("fiber_loss_db_km", math.inf, "fiber loss"),
    ],
)
def test_system_params_rejects_non_finite_values(field, value, named):
    with pytest.raises(DomainError, match=f"{named} must be finite"):
        SystemParams(**{field: value})


def test_binary_entropy_reference_values():
    assert binary_entropy(0.0) == 0.0
    assert binary_entropy(1.0) == 0.0
    assert binary_entropy(0.5) == 1.0
    assert binary_entropy(0.015) == pytest.approx(0.11236071009937673, rel=1e-14)
    assert binary_entropy(0.25) == pytest.approx(0.8112781244591328, rel=1e-14)
    assert binary_entropy(0.3) == binary_entropy(0.7)
    with pytest.raises(DomainError):
        binary_entropy(-0.01)
    with pytest.raises(DomainError):
        binary_entropy(1.01)


_CHANNELS = ("correct_z", "error_z", "correct_x", "error_x")


def _intrinsic(spec_a, spec_b, table):
    """(correct_z, error_z, correct_x, error_x) of the statistics that
    ``gains`` contracts, before misalignment mixes them."""
    eta, cutoff = table.params.efficiency, table.cutoff
    return contract(
        table.params.dark_count,
        transmitted(spec_a, eta, cutoff)[0],
        transmitted(spec_b, eta, cutoff)[0],
    )


def test_gains_match_double_sum():
    table = yield_tables(DetectorParams(0.4, 1e-7), 12)
    g = gains(WCS, WCS, table, 0.015)
    correct, error, _, _ = _intrinsic(WCS, WCS, table)
    pa, _ = transmitted(WCS, 1.0, table.cutoff)
    dense = dense_tables(table)
    want_correct = oracle_gain(pa, pa, dense["correct_z"])
    want_error = oracle_gain(pa, pa, dense["error_z"])
    assert correct == pytest.approx(want_correct, rel=1e-13)
    assert error == pytest.approx(want_error, rel=1e-13)
    assert g.total_z == pytest.approx(want_correct + want_error, rel=1e-13)
    assert g.error_weighted_z == pytest.approx(
        0.015 * want_correct + 0.985 * want_error, rel=1e-13
    )
    assert g.qber_z == pytest.approx(g.error_weighted_z / g.total_z, rel=1e-13)


def test_gains_asymmetric_sources():
    table = yield_tables(DetectorParams(0.4, 1e-7), 12)
    pa, _ = transmitted(WCS, 1.0, table.cutoff)
    dense = dense_tables(table)
    want_correct = oracle_gain(pa, (1.0,), dense["correct_z"])
    want_error = oracle_gain(pa, (1.0,), dense["error_z"])
    assert _intrinsic(WCS, VACUUM, table)[0] == pytest.approx(want_correct, rel=1e-13)
    g = gains(WCS, VACUUM, table, 0.0)
    assert g.total_z == pytest.approx(want_correct + want_error, rel=1e-13)
    assert g.error_weighted_z == pytest.approx(want_error, rel=1e-13)


_MU = st.floats(0.0, 0.3)
_SOURCES = st.one_of(
    st.builds(SourceSpec.css, _MU),
    st.builds(SourceSpec.nonideal_css, _MU, st.floats(_SMALLEST_NONZERO, 1.0)),
    st.builds(SourceSpec.wcs, _MU),
    st.just(SourceSpec.sps()),
    st.just(SourceSpec.vacuum()),
)


@settings(max_examples=60, deadline=None)
@given(
    eta=st.one_of(st.just(0.0), st.floats(_SMALLEST_NONZERO, 1.0)),
    dark=st.one_of(st.just(0.0), st.floats(_SMALLEST_NONZERO, 0.5, exclude_max=True)),
    e_d=st.floats(0.0, 1.0),
    spec_a=_SOURCES,
    spec_b=_SOURCES,
)
# correct_z is 2.8e-312, where one unit in the last place is 1.8e-12 of it
@example(0.5, 0.0, 0.0, SourceSpec.css(0.25), SourceSpec.wcs(2.225073858507e-311))
def test_gains_match_per_pair_detection_property(eta, dark, e_d, spec_a, spec_b):
    """Loss taken in closed form on the photon statistics gives the gains
    of the Fock simulator's per-pair detection tables, contracted with
    each source truncated deeper than the closed form."""
    params = DetectorParams(eta, dark)
    # mu <= 0.3 keeps the oracle within 17 photons
    deep_a, deep_b = (oracle_distribution(s, 1e-22) for s in (spec_a, spec_b))
    cutoff = max(len(deep_a), len(deep_b), 2) - 1
    table = yield_tables(params, cutoff)
    got = dict(zip(_CHANNELS, _intrinsic(spec_a, spec_b, table)))
    got.update(gains(spec_a, spec_b, table, e_d)._asdict())
    # the contraction in 50 digits, rounded once
    with mpmath.workdps(50):
        want = {
            name: oracle_gain(deep_a, deep_b, table.tolist())
            for name, table in _bell_yield_tables(params, cutoff).items()
        }
        for basis in ("z", "x"):
            correct, error = want[f"correct_{basis}"], want[f"error_{basis}"]
            want[f"total_{basis}"] = correct + error
            want[f"error_weighted_{basis}"] = e_d * correct + (1 - e_d) * error
    for name, value in want.items():
        value = float(value)
        assert (got[name] == 0.0) == (value == 0.0), name
        # a subnormal gain carries fewer digits than the relative tolerance
        assert got[name] == pytest.approx(value, rel=1e-13, abs=_SUBNORMAL_SLACK), name


@settings(max_examples=60, deadline=None)
@given(
    eta=st.one_of(st.just(0.0), st.floats(_SMALLEST_NONZERO, 1.0)),
    dark=st.one_of(st.just(0.0), st.floats(_SMALLEST_NONZERO, 0.5, exclude_max=True)),
    e_d=st.floats(0.0, 1.0),
    spec_a=_SOURCES,
    spec_b=_SOURCES,
)
def test_gain_set_is_the_misalignment_mix_of_the_contraction(eta, dark, e_d, spec_a, spec_b):
    """A GainSet keeps the four gains the relay reports, each bitwise the
    misalignment mix of ``YieldTable.contract``'s four outputs."""
    table = yield_tables(DetectorParams(eta, dark), 20)
    correct_z, error_z, correct_x, error_x = _intrinsic(spec_a, spec_b, table)
    want = {
        "total_z": correct_z + error_z,
        "error_weighted_z": e_d * correct_z + (1.0 - e_d) * error_z,
        "total_x": correct_x + error_x,
        "error_weighted_x": e_d * correct_x + (1.0 - e_d) * error_x,
    }
    got = gains(spec_a, spec_b, table, e_d)._asdict()
    assert {k: v.hex() for k, v in got.items()} == {k: v.hex() for k, v in want.items()}


@pytest.mark.parametrize(
    "mu_a,mu_b", [(0.4, 0.4), (0.4, 0.07), (0.07, 0.07), (0.07, 0.0), (0.0, 0.0)]
)
def test_wcs_gains_match_bessel_closed_form(mu_a, mu_b):
    """Weak coherent gains equal the 50-digit I0 closed form to 1e-12
    relative over 0-600 km; mu = 0 is the vacuum source."""

    spec_a, spec_b = (SourceSpec.wcs(mu) if mu else VACUUM for mu in (mu_a, mu_b))
    for distance_km in range(0, 601, 10):
        params = SystemParams(distance_km=distance_km).detector_params()
        got = _intrinsic(spec_a, spec_b, yield_tables(params, 15))
        want = oracle_wcs_gains(mu_a, mu_b, params.efficiency, params.dark_count)
        for name, g, value in zip(_CHANNELS, got, want):
            assert abs(g - value) <= 1e-12 * value, (distance_km, name)


def test_gains_reject_undersized_table():
    # at the 0 km efficiency the arriving light needs about 12 photon numbers
    table = yield_tables(DetectorParams(0.4, 1e-7), 4)
    with pytest.raises(CutoffError, match="above the yield-table cutoff 4 "):
        gains(WCS, WCS, table, 0.015)


@pytest.mark.parametrize("e_d", [-0.01, 1.01, math.nan])
def test_gains_reject_misalignment_outside_the_unit_interval(e_d):
    table = yield_tables(DetectorParams(0.04, 1e-7), 15)
    with pytest.raises(DomainError, match="misalignment must lie in \\[0, 1\\]"):
        gains(WCS, VACUUM, table, e_d)


_GATE_MU = st.floats(-8.0, 2.0).map(lambda e: 10.0**e)
# every intensity the series accepts, from subnormal to the photon cap
_ANY_MU = st.one_of(st.just(0.0), st.floats(-320.0, math.log10(511.99)).map(lambda e: 10.0**e))


@settings(max_examples=300, deadline=None)
@given(
    spec=st.one_of(
        st.builds(SourceSpec.wcs, _GATE_MU),
        st.builds(SourceSpec.css, _GATE_MU),
        st.builds(SourceSpec.nonideal_css, _GATE_MU, st.floats(0.0, 1.0, exclude_min=True)),
        st.just(SourceSpec.sps()),
        st.just(VACUUM),
    ),
    cutoff=st.integers(1, 20),
    eta=st.one_of(st.just(1.0), st.floats(0.0, 1.0)),
)
def test_cutoff_check_admits_what_the_emitted_rule_admitted(spec, cutoff, eta):
    """The table-cutoff check on the arriving light admits every source
    the rule on the emitted light admitted, and decides as it did
    without loss."""
    table = yield_tables(DetectorParams(eta, 0.0), cutoff)
    try:
        gains(spec, VACUUM, table, 0.0)
        admitted = True
    except CutoffError:
        admitted = False
    emitted_fits = oracle_emitted_cutoff(spec, TAIL_TOLERANCE) <= cutoff
    assert admitted or not emitted_fits
    if eta == 1.0:
        assert admitted == emitted_fits


@settings(max_examples=300, deadline=None)
@given(
    spec=st.one_of(
        st.builds(SourceSpec.wcs, _ANY_MU),
        st.builds(SourceSpec.css, _ANY_MU),
        st.builds(SourceSpec.nonideal_css, _ANY_MU, st.floats(0.0, 1.0, exclude_min=True)),
        st.just(SourceSpec.sps()),
        st.just(VACUUM),
    ),
    partner=st.builds(SourceSpec.wcs, _ANY_MU),
    eta=st.floats(0.0, 1.0, exclude_min=True),
    dark=st.one_of(st.just(0.0), st.floats(0.0, 0.5)),
    cutoff=st.integers(1, 20),
)
def test_gains_are_finite_or_rejected(spec, partner, eta, dark, cutoff):
    """Every validated source below the photon cap gives finite gains or
    a cutoff or convergence error that names the problem."""
    try:
        g = gains(spec, partner, yield_tables(DetectorParams(eta, dark), cutoff), 0.015)
    except CutoffError as exc:
        assert f"yield-table cutoff {cutoff} " in str(exc)
    except DomainError as exc:
        assert "does not converge within 512 photons" in str(exc)
    else:
        assert all(math.isfinite(getattr(g, name)) for name in GainSet._fields)


def _gains_or_error(spec_a, spec_b, table, e_d):
    try:
        return [v.hex() for v in gains(spec_a, spec_b, table, e_d)._asdict().values()]
    except (CutoffError, DomainError) as exc:
        return type(exc), str(exc)


@settings(max_examples=300, deadline=None)
@given(
    spec=st.one_of(
        st.builds(SourceSpec.wcs, _ANY_MU),
        st.builds(SourceSpec.css, _ANY_MU),
        st.builds(SourceSpec.nonideal_css, _ANY_MU, st.floats(0.0, 1.0, exclude_min=True)),
        st.just(SourceSpec.sps()),
        st.just(VACUUM),
    ),
    eta=st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0)),
    dark=st.one_of(st.just(0.0), st.floats(0.0, 1.0, exclude_max=True)),
    e_d=st.floats(0.0, 1.0),
    cutoff=st.integers(1, 20),
)
def test_vacuum_channel_gains_are_mirror_symmetric(spec, eta, dark, e_d, cutoff):
    """A source against the vacuum gives bitwise the same gains, or the
    same error, in either order: the pipelines contract each vacuum
    channel and its mirror once."""
    table = yield_tables(DetectorParams(eta, dark), cutoff)
    assert _gains_or_error(spec, VACUUM, table, e_d) == _gains_or_error(VACUUM, spec, table, e_d)


@pytest.mark.parametrize("value", [-0.1, 1.5, math.nan])
def test_gain_set_rejects_gains_outside_unit_interval(value):
    """The interval kernels take gains unchecked; GainSet is their guard."""
    fields = dict.fromkeys(GainSet._fields, 0.5)
    for name in fields:
        with pytest.raises(DomainError, match=f"gain {name}="):
            GainSet(**dict(fields, **{name: value}))


def test_misalignment_flips_correct_and_error():
    table = yield_tables(DetectorParams(0.4, 1e-7), 9)
    css = SourceSpec.css(0.1)
    g0 = gains(css, css, table, 0.0)
    g1 = gains(css, css, table, 1.0)
    assert g0.error_weighted_z == pytest.approx(g1.total_z - g1.error_weighted_z, rel=1e-12)
    assert g0.total_z == g1.total_z


def test_vacuum_channel_error_rate_is_one_half():
    """With one vacuum input, correct and error coincidences are
    equally likely, so the observed error rate is 1/2 regardless of
    misalignment."""
    table = yield_tables(DetectorParams(0.4, 1e-7), 12)
    for e_d in (0.0, 0.015, 0.3):
        g = gains(WCS, VACUUM, table, e_d)
        assert g.qber_z == pytest.approx(0.5, rel=1e-10)
        assert g.qber_x == pytest.approx(0.5, rel=1e-10)


def test_key_rate_formula():
    # R = q11 (1 - H(e11)) - q f H(E)
    q11, e11, q, ez, f = 0.08, 0.015, 0.0801, 0.015, 1.16
    expected = q11 * (1.0 - binary_entropy(e11)) - q * f * binary_entropy(ez)
    assert key_rate(q11, e11, q, ez, f) == pytest.approx(expected, rel=1e-14)
    assert expected > 0.0


def test_key_rate_is_unclamped():
    """The formula's value is returned as is; the pipelines clamp it."""
    q11, e11, q, ez, f = 1e-9, 0.49, 0.5, 0.25, 1.16
    expected = q11 * (1.0 - binary_entropy(e11)) - q * f * binary_entropy(ez)
    assert key_rate(q11, e11, q, ez, f) == expected < 0.0


def test_key_rate_saturates_phase_error_at_half():
    # any bound at or above 1/2 destroys all privacy
    r_half = key_rate(0.1, 0.5, 0.0, 0.0, 1.16)
    r_above = key_rate(0.1, 0.8, 0.0, 0.0, 1.16)
    r_inf = key_rate(0.1, math.inf, 0.0, 0.0, 1.16)
    assert r_half == r_above == r_inf == 0.0


def test_key_rate_validation():
    with pytest.raises(DomainError):
        key_rate(-0.1, 0.01, 0.1, 0.01, 1.16)
    with pytest.raises(DomainError):
        key_rate(0.1, -0.01, 0.1, 0.01, 1.16)
    with pytest.raises(DomainError):
        key_rate(0.1, 0.01, 0.1, 1.5, 1.16)
    with pytest.raises(DomainError):
        key_rate(0.1, 0.01, 0.1, 0.01, 0.5)


_KEY_RATE_ARGS = ("q11_z", "e11_x", "q_z", "qber_z", "ec_efficiency")


@pytest.mark.parametrize(
    "name,value",
    [
        ("q11_z", math.nan),
        ("q11_z", math.inf),
        ("q11_z", 1.5),
        ("e11_x", math.nan),
        ("q_z", math.nan),
        ("q_z", math.inf),
        ("qber_z", math.nan),
        ("ec_efficiency", math.nan),
        ("ec_efficiency", math.inf),
    ],
)
def test_key_rate_rejects_nan_and_infinity_by_name(name, value):
    """No input that passes the checks makes the rate NaN or infinite:
    each bad argument raises a ``DomainError`` that names it."""
    args = dict(zip(_KEY_RATE_ARGS, (0.1, 0.1, 0.1, 0.01, 1.16)), **{name: value})
    with pytest.raises(DomainError, match=name):
        key_rate(**args)


def test_single_photon_truth_at_perfect_detection():
    table = yield_tables(DetectorParams(1.0, 0.0), 3)
    truth = true_single_photon_quantities(table, misalignment=0.015)
    assert truth.y11_z == pytest.approx(0.5, abs=1e-15)
    assert truth.y11_x == pytest.approx(0.5, abs=1e-15)
    assert truth.e11_z == pytest.approx(0.015, rel=1e-13)
    assert truth.e11_x == pytest.approx(0.015, rel=1e-13)


def test_single_photon_truth_without_coincidences():
    alive = yield_tables(DetectorParams(1e-12, 0.0), 3)
    assert true_single_photon_quantities(alive, 0.015).y11_z > 0.0
    # zero efficiency and no dark counts: no coincidences at all, so the
    # single-photon error rate is undefined
    dead = yield_tables(DetectorParams(0.0, 0.0), 3)
    truth = true_single_photon_quantities(dead, misalignment=0.015)
    assert truth.y11_z == 0.0 and truth.y11_x == 0.0
    assert truth.e11_z is None and truth.e11_x is None
