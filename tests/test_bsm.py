"""Beam-splitter propagation and relay detection model."""

import math
from array import array
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mdiqkd import CutoffError, DetectorParams, DomainError, YieldTable, yield_tables
from mdiqkd.bsm import MAX_CUTOFF, _y1_block

from _oracles import dense_tables, oracle_bell_yield, oracle_lossless_pair, oracle_propagate
from fock import BellOutcome, Polarization, bell_yield, click_probability, propagate

P = Polarization
POL_NAMES = {"h": P.H, "v": P.V, "plus": P.PLUS, "minus": P.MINUS}
CANONICAL_PAIRS = [(P.H, P.V), (P.H, P.H), (P.PLUS, P.PLUS), (P.PLUS, P.MINUS)]
# YieldTable field -> canonical input polarizations, by oracle name
CHANNELS = {
    "correct_z": ("h", "v"),
    "error_z": ("h", "h"),
    "correct_x": ("plus", "plus"),
    "error_x": ("plus", "minus"),
}


def _dense(table):
    """The four channel tables as arrays, from binomial-row contractions."""
    return {name: np.asarray(t) for name, t in dense_tables(table).items()}


def _bell_yield_tables(params, cutoff):
    """Per-pair detection: ``bell_yield`` on every ``propagate`` output."""
    return {
        name: np.array(
            [
                [
                    bell_yield(
                        propagate(i, POL_NAMES[pa], j, POL_NAMES[pb]),
                        BellOutcome.PSI_PLUS,
                        params,
                    )
                    for j in range(cutoff + 1)
                ]
                for i in range(cutoff + 1)
            ]
        )
        for name, (pa, pb) in CHANNELS.items()
    }


def _prob(dist, config):
    """Probability of one (n1h, n1v, n2h, n2v) configuration, 0 if absent."""
    return float(dist.probabilities[(dist.configs == config).all(axis=1)].sum())


@pytest.mark.parametrize("pol_a", sorted(POL_NAMES))
@pytest.mark.parametrize("pol_b", sorted(POL_NAMES))
def test_propagate_matches_exact_expansion(pol_a, pol_b):
    """Every polarization pairing agrees with a symbolic reference."""
    for i in range(6):
        for j in range(6 - i):
            want = oracle_propagate(i, pol_a, j, pol_b)
            got = propagate(i, POL_NAMES[pol_a], j, POL_NAMES[pol_b])
            for config, prob in want.items():
                assert _prob(got, config) == pytest.approx(
                    float(prob), abs=5e-15
                ), (i, j, config)
            assert got.total() == pytest.approx(1.0, abs=1e-13)


def test_two_photon_interference_cancels_coincidences():
    """Identical single photons never exit through different arms."""
    dist = propagate(1, P.H, 1, P.H)
    assert _prob(dist, (1, 0, 1, 0)) == 0.0
    assert _prob(dist, (2, 0, 0, 0)) == pytest.approx(0.5, abs=1e-15)
    assert _prob(dist, (0, 0, 2, 0)) == pytest.approx(0.5, abs=1e-15)

    diag = propagate(1, P.PLUS, 1, P.PLUS)
    for config in [(1, 0, 1, 0), (1, 0, 0, 1), (0, 1, 1, 0), (0, 1, 0, 1)]:
        assert abs(_prob(diag, config)) < 1e-14


def test_opposite_diagonal_single_photons():
    dist = propagate(1, P.PLUS, 1, P.MINUS)
    expected = {
        (2, 0, 0, 0): 0.125,
        (0, 2, 0, 0): 0.125,
        (0, 0, 2, 0): 0.125,
        (0, 0, 0, 2): 0.125,
        (1, 0, 0, 1): 0.25,
        (0, 1, 1, 0): 0.25,
    }
    for config, prob in expected.items():
        assert _prob(dist, config) == pytest.approx(prob, abs=1e-15)
    assert _prob(dist, (1, 1, 0, 0)) == 0.0
    assert _prob(dist, (0, 0, 1, 1)) == 0.0


@pytest.mark.parametrize("i,j", [(0, 0), (3, 2), (10, 7), (20, 20)])
@pytest.mark.parametrize("pols", CANONICAL_PAIRS, ids=lambda p: f"{p[0].value}-{p[1].value}")
def test_propagate_normalization_and_positivity(i, j, pols):
    dist = propagate(i, pols[0], j, pols[1])
    assert dist.total() == pytest.approx(1.0, abs=1e-12)
    assert (dist.probabilities >= 0.0).all()
    totals = dist.configs.sum(axis=1)
    assert (totals == i + j).all()


def test_propagate_validation():
    with pytest.raises(DomainError):
        propagate(-1, P.H, 0, P.V)
    with pytest.raises(DomainError):
        propagate(0, "h", 0, P.V)
    with pytest.raises(CutoffError):
        propagate(21, P.H, 20, P.V)


def test_propagate_cache_returns_identical_object():
    a = propagate(2, P.H, 3, P.V)
    b = propagate(2, P.H, 3, P.V)
    assert a is b


def test_click_probability_reference_values():
    params = DetectorParams(efficiency=0.2, dark_count=1e-7)
    # frozen: 1 - (1 - 1e-7) (1 - 0.2)^3
    assert click_probability(3, params) == pytest.approx(0.4880000512, rel=1e-15)
    # a dark count is the only way to click on vacuum
    assert click_probability(0, params) == 1e-7
    assert click_probability(0, DetectorParams(0.3, 0.0)) == 0.0
    assert click_probability(5, DetectorParams(1.0, 0.0)) == 1.0
    assert click_probability(0, DetectorParams(1.0, 0.0)) == 0.0


def test_vacuum_outcome_needs_two_dark_counts():
    dist = propagate(0, P.H, 0, P.V)
    for pd in (1e-7, 1e-3, 0.3):
        params = DetectorParams(efficiency=0.55, dark_count=pd)
        expected = 2.0 * pd * pd * (1.0 - pd) * (1.0 - pd)
        for outcome in BellOutcome:
            assert bell_yield(dist, outcome, params) == pytest.approx(
                expected, rel=1e-15
            )


def test_single_pair_yields_at_unit_efficiency():
    params = DetectorParams(efficiency=1.0, dark_count=0.0)
    table = _dense(yield_tables(params, 2))
    assert table["correct_z"][1, 1] == pytest.approx(0.5, abs=1e-15)
    assert table["error_z"][1, 1] == pytest.approx(0.0, abs=1e-15)
    assert table["correct_x"][1, 1] == pytest.approx(0.5, abs=1e-15)
    assert table["error_x"][1, 1] == pytest.approx(0.0, abs=1e-15)
    # half of all (1,1) events project onto each Bell state; detection
    # scales with eta^2
    half = _dense(yield_tables(DetectorParams(0.5, 0.0), 2))
    assert half["correct_z"][1, 1] == pytest.approx(0.125, rel=1e-13)


@pytest.mark.parametrize("eta,dark", [(0.1, 0.0), (0.5, 1e-7), (1.0, 1e-3)])
def test_bell_yield_matches_enumeration(eta, dark):
    params = DetectorParams(eta, dark)
    # exact rationals equal to the binary floats actually used
    eta_f, dark_f = Fraction(eta), Fraction(dark)
    for pa, pb in [("h", "v"), ("plus", "minus")]:
        for i in range(4):
            for j in range(4 - i):
                dist = propagate(i, POL_NAMES[pa], j, POL_NAMES[pb])
                exact = oracle_propagate(i, pa, j, pb)
                for outcome, name in [
                    (BellOutcome.PSI_PLUS, "psi_plus"),
                    (BellOutcome.PSI_MINUS, "psi_minus"),
                ]:
                    want = float(oracle_bell_yield(exact, name, eta_f, dark_f))
                    got = bell_yield(dist, outcome, params)
                    assert got == pytest.approx(want, rel=1e-12, abs=1e-300)


def test_bell_yield_keeps_silent_detectors_exact_near_unit_efficiency():
    """Regression: the silent probability (1 - p_d)(1 - eta)^n is taken
    directly; 1 - P(fire) lost 1.6e-14 relative here."""
    eta, dark = 0.875, 0.4788
    dist = propagate(7, P.PLUS, 7, P.MINUS)  # error_x (7, 7)
    with mpmath.workdps(40):
        e, pd = mpmath.mpf(eta), mpmath.mpf(dark)
        fired = lambda n: pd + (1 - pd) * (1 - (1 - e) ** int(n))
        silent = lambda n: (1 - pd) * (1 - e) ** int(n)
        want = mpmath.fsum(
            mpmath.mpf(float(p))
            * (
                fired(c[0]) * fired(c[1]) * silent(c[2]) * silent(c[3])
                + fired(c[2]) * fired(c[3]) * silent(c[0]) * silent(c[1])
            )
            for c, p in zip(dist.configs, dist.probabilities)
        )
        got = bell_yield(dist, BellOutcome.PSI_PLUS, DetectorParams(eta, dark))
        assert abs(got - want) <= 1e-15 * want


def test_outcome_symmetry_between_diagonal_channels():
    """Same-polarization inputs feed one Bell outcome exactly as
    opposite-polarization inputs feed the other."""
    params = DetectorParams(0.37, 1e-5)
    for i, j in [(1, 1), (2, 1), (3, 2), (4, 4)]:
        same = propagate(i, P.PLUS, j, P.PLUS)
        opposite = propagate(i, P.PLUS, j, P.MINUS)
        assert bell_yield(same, BellOutcome.PSI_PLUS, params) == pytest.approx(
            bell_yield(opposite, BellOutcome.PSI_MINUS, params), rel=1e-12
        )
        assert bell_yield(same, BellOutcome.PSI_MINUS, params) == pytest.approx(
            bell_yield(opposite, BellOutcome.PSI_PLUS, params), rel=1e-12
        )


def test_yield_tables_are_symmetric_and_bounded():
    table = _dense(yield_tables(DetectorParams(0.4, 1e-7), 6))
    for name in ("correct_z", "error_z", "correct_x", "error_x"):
        matrix = table[name]
        assert matrix.shape == (7, 7)
        np.testing.assert_allclose(matrix, matrix.T, rtol=1e-12, atol=1e-300)
        assert (matrix >= 0.0).all() and (matrix <= 1.0).all()


def test_yield_tables_cutoff_validation():
    """``yield_tables`` is the ``YieldTable`` constructor, and ``_replace``
    runs its checks too: a DomainError below 1 or for a cutoff that is not
    an integer, a CutoffError above 20."""
    params = DetectorParams(0.4, 1e-7)
    table = yield_tables(params, MAX_CUTOFF)
    assert yield_tables is YieldTable and MAX_CUTOFF == 20
    for build in (yield_tables, lambda _, cutoff: table._replace(cutoff=cutoff)):
        with pytest.raises(DomainError, match="cutoff must be >= 1, got 0"):
            build(params, 0)
        with pytest.raises(CutoffError, match="cutoff 21 exceeds"):
            build(params, 21)
        for cutoff in (15.0, 2.5, "15"):
            with pytest.raises(DomainError, match=f"cutoff must be an integer, got {cutoff!r}"):
                build(params, cutoff)
    assert type(yield_tables(params, np.int64(15)).cutoff) is int


def test_detector_params_validation():
    with pytest.raises(DomainError):
        DetectorParams(efficiency=1.5, dark_count=0.0)
    with pytest.raises(DomainError):
        DetectorParams(efficiency=-0.1, dark_count=0.0)
    with pytest.raises(DomainError):
        DetectorParams(efficiency=0.5, dark_count=1.0)
    with pytest.raises(DomainError):
        DetectorParams(efficiency=0.5, dark_count=-1e-9)


@pytest.mark.parametrize("dark", [0.0, 1e-7, 1e-3])
@pytest.mark.parametrize("eta", [0.0, 1e-12, 4e-7, 4e-3, 0.4, 1.0])
@pytest.mark.parametrize("cutoff", [1, 6, 15])
def test_yield_tables_match_per_pair_detection(cutoff, eta, dark):
    """The loss-folded tables equal a direct per-pair evaluation at eta."""
    params = DetectorParams(eta, dark)
    table = _dense(yield_tables(params, cutoff))
    for name, want in _bell_yield_tables(params, cutoff).items():
        got = table[name]
        np.testing.assert_array_equal(got == 0.0, want == 0.0, err_msg=name)
        np.testing.assert_allclose(got, want, rtol=1e-13, atol=0.0, err_msg=name)


@pytest.mark.parametrize("dark", [0.0, 0.125, 0.5])
def test_lossless_closed_form_matches_exact_oracle(dark):
    """At binary-exact dark counts the closed-form unit-efficiency tables
    equal the exact-rational enumeration, rounded once."""
    for (name, (pa, pb)), got in zip(CHANNELS.items(), _y1_block(dark, 5, 5)):
        exact = [
            [
                oracle_bell_yield(
                    oracle_propagate(i, pa, j, pb), "psi_plus", Fraction(1), Fraction(dark)
                )
                for j in range(5)
            ]
            for i in range(5)
        ]
        want = np.array(exact, dtype=float)
        got = np.asarray(got).reshape(5, 5)
        np.testing.assert_array_equal(got == 0.0, want == 0.0, err_msg=name)
        np.testing.assert_allclose(got, want, rtol=1e-15, atol=0.0, err_msg=name)


def _assert_blocks_equal_pairs_bitwise(dark):
    size = MAX_CUTOFF + 1
    pairs = [[oracle_lossless_pair(dark, i, j) for j in range(size)] for i in range(size)]
    for rows in range(1, size + 1):
        for cols in range(1, size + 1):
            want = [
                array("d", (pairs[i][j][k] for i in range(rows) for j in range(cols))).tobytes()
                for k in range(4)
            ]
            got = [array("d", table).tobytes() for table in _y1_block(dark, rows, cols)]
            assert got == want, (dark, rows, cols)


@pytest.mark.parametrize("dark", [0.0, 1e-7, 0.125, 0.5])
def test_y1_blocks_equal_the_per_pair_formula_bitwise(dark):
    """Every block the tables can ask for, up to 21 x 21, holds exactly
    the floats of the per-pair closed form."""
    _assert_blocks_equal_pairs_bitwise(dark)


@settings(max_examples=15, deadline=None)
@given(dark=st.floats(0.0, 1.0, exclude_max=True))
def test_y1_blocks_equal_the_per_pair_formula_bitwise_property(dark):
    _assert_blocks_equal_pairs_bitwise(dark)


# Zero or at least 1e-100 keeps every yield a normal float; subnormal
# yields carry too few digits for a relative tolerance.
_SMALLEST_NONZERO = 1e-100


@settings(max_examples=100, deadline=None)
@given(
    eta=st.one_of(st.just(0.0), st.floats(_SMALLEST_NONZERO, 1.0)),
    dark=st.one_of(st.just(0.0), st.floats(_SMALLEST_NONZERO, 0.5, exclude_max=True)),
    cutoff=st.integers(1, 8),
)
def test_yield_tables_match_per_pair_detection_property(eta, dark, cutoff):
    """The closed form folded with loss equals per-pair detection at any eta."""
    params = DetectorParams(eta, dark)
    table = _dense(yield_tables(params, cutoff))
    for name, want in _bell_yield_tables(params, cutoff).items():
        got = table[name]
        np.testing.assert_array_equal(got == 0.0, want == 0.0, err_msg=name)
        np.testing.assert_allclose(got, want, rtol=1e-13, atol=0.0, err_msg=name)


def test_loss_fold_is_exact_in_rationals():
    """Binomial loss in front of lossless detectors is the lossy detector."""
    eta, dark = Fraction(1, 3), Fraction(1, 10)
    for pa, pb in CHANNELS.values():
        lossless = {
            (k, l): oracle_bell_yield(
                oracle_propagate(k, pa, l, pb), "psi_plus", Fraction(1), dark
            )
            for k in range(3)
            for l in range(3)
        }
        for i in range(3):
            for j in range(3):
                folded = sum(
                    math.comb(i, k) * eta**k * (1 - eta) ** (i - k)
                    * math.comb(j, l) * eta**l * (1 - eta) ** (j - l)
                    * lossless[k, l]
                    for k in range(i + 1)
                    for l in range(j + 1)
                )
                direct = oracle_bell_yield(
                    oracle_propagate(i, pa, j, pb), "psi_plus", eta, dark
                )
                assert folded == direct, (pa, pb, i, j)


@pytest.mark.parametrize(
    "name,i,j", [("correct_z", 1, 1), ("correct_z", 3, 2), ("correct_x", 2, 2), ("error_x", 2, 2)]
)
def test_extreme_loss_fold_matches_mpmath(name, i, j):
    """At eta = 1e-12 without dark counts every yield comes from the
    surviving-photon terms of the fold; check them to 40 digits."""
    eta = 1e-12
    table = _dense(yield_tables(DetectorParams(eta, 0.0), 3))
    pa, pb = CHANNELS[name]
    with mpmath.workdps(40):
        e = mpmath.mpf(eta)
        want = mpmath.mpf(0)
        for k in range(i + 1):
            for l in range(j + 1):
                lossless = oracle_bell_yield(
                    oracle_propagate(k, pa, l, pb), "psi_plus", Fraction(1), Fraction(0)
                )
                want += (
                    mpmath.binomial(i, k) * e**k * (1 - e) ** (i - k)
                    * mpmath.binomial(j, l) * e**l * (1 - e) ** (j - l)
                    * mpmath.mpf(lossless.numerator) / lossless.denominator
                )
        assert want > 0
        assert abs(table[name][i, j] - want) <= 1e-13 * want
