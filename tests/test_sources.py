"""Photon-number statistics of the supported source families."""

import math
import sys

import mpmath
import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from mdiqkd import CutoffError, DetectorParams, DomainError, SourceSpec, gains, yield_tables
import mdiqkd.sources
from mdiqkd.sources import TAIL_TOLERANCE, SourceKind, _series, transmitted

from _oracles import binomial_fold, oracle_distribution


ALL_SPECS = [
    SourceSpec.css(0.1),
    SourceSpec.css(0.01),
    SourceSpec.css(1.3),
    SourceSpec.nonideal_css(0.1, 0.7),
    SourceSpec.nonideal_css(0.5, 0.95),
    SourceSpec.wcs(0.4),
    SourceSpec.wcs(0.07),
    SourceSpec.wcs(2.0),
    SourceSpec.sps(),
    SourceSpec.vacuum(),
]


# Deep enough that no source below takes its cap: each stops on its tail.
_DEEP = 60


def emitted(spec):
    """The emitted statistics: the series at no loss, and its tail."""
    return transmitted(spec, 1.0, _DEEP)


@pytest.mark.parametrize("spec", ALL_SPECS, ids=str)
def test_probabilities_normalized_with_tail(spec):
    probs, tail = emitted(spec)
    assert abs(math.fsum(probs) + tail - 1.0) < 1e-12
    assert tail < 1e-15
    assert min(probs) >= 0.0


def test_css_has_odd_photon_numbers_only():
    probs, _ = emitted(SourceSpec.css(0.1))
    assert set(probs[0::2]) == {0.0}
    # frozen reference values for mu = 0.1
    assert probs[1] == pytest.approx(0.9983352757296110, rel=1e-15)
    assert probs[3] == pytest.approx(1.663892126216018e-3, rel=1e-15)
    assert probs[5] == pytest.approx(8.319460631080091e-7, rel=1e-14)


def test_nonideal_css_mixes_both_parities():
    probs, tail = emitted(SourceSpec.nonideal_css(0.1, 0.7))
    assert probs[0] == pytest.approx(0.2985062246859679, rel=1e-15)
    assert probs[1] == pytest.approx(0.6988346930107277, rel=1e-15)
    assert probs[2] == pytest.approx(1.4925311234298397e-3, rel=1e-15)
    # odd / even sectors carry weight a and 1 - a respectively
    assert math.fsum(probs[1::2]) + tail == pytest.approx(0.7, abs=1e-13)
    assert math.fsum(probs[0::2]) == pytest.approx(0.3, abs=1e-13)


def _mean(probs):
    return sum(n * p for n, p in enumerate(probs))


def test_wcs_is_poissonian():
    probs, _ = emitted(SourceSpec.wcs(0.4))
    assert probs[0] == pytest.approx(0.6703200460356393, rel=1e-15)
    assert probs[1] == pytest.approx(0.2681280184142557, rel=1e-15)
    assert probs[2] == pytest.approx(5.362560368285114e-2, rel=1e-15)
    assert _mean(probs) == pytest.approx(0.4, rel=1e-12)


def test_degenerate_sources():
    assert emitted(SourceSpec.sps()) == ((0.0, 1.0), 0.0)
    assert emitted(SourceSpec.vacuum()) == ((1.0,), 0.0)


def test_zero_intensity_limits():
    assert emitted(SourceSpec.css(0.0))[0] == (0.0, 1.0)
    ni0, _ = emitted(SourceSpec.nonideal_css(0.0, 0.7))
    assert ni0[0] == pytest.approx(1.0 - 0.7, abs=1e-16)
    assert ni0[1] == pytest.approx(0.7, abs=1e-16)
    assert emitted(SourceSpec.wcs(0.0))[0] == (1.0,)


def test_css_mean_matches_closed_form():
    mu = 0.1
    probs, _ = emitted(SourceSpec.css(mu))
    assert _mean(probs) == pytest.approx(mu / math.tanh(mu), rel=1e-12)


@pytest.mark.parametrize(
    "factory",
    [
        lambda: SourceSpec.css(-0.1),
        lambda: SourceSpec.css(float("nan")),
        lambda: SourceSpec.css(float("inf")),
        lambda: SourceSpec.nonideal_css(0.1, 0.0),
        lambda: SourceSpec.nonideal_css(0.1, -0.2),
        lambda: SourceSpec.nonideal_css(0.1, 1.2),
        lambda: SourceSpec.wcs(-2.0),
        # only the non-ideal cat has an odd weight to set
        lambda: SourceSpec(SourceKind.CSS, 0.1, 0.7),
        lambda: SourceSpec(SourceKind.WCS, 0.4, float("nan")),
        lambda: SourceSpec(SourceKind.WCS, 0.4, -3.0),
        lambda: SourceSpec(SourceKind.SPS, 0.0, 0.5),
        lambda: SourceSpec(SourceKind.VACUUM, 0.0, 0.7),
    ],
)
def test_invalid_source_parameters(factory):
    with pytest.raises(DomainError):
        factory()


@pytest.mark.parametrize("kind", [SourceKind.SPS, SourceKind.VACUUM])
def test_single_photon_and_vacuum_take_no_intensity(kind):
    """Their statistics do not depend on mu, so a nonzero mu would make
    equal sources unequal specs, each with its own memo entries."""
    with pytest.raises(DomainError, match=f"a {kind.value} source has mu fixed at 0"):
        SourceSpec(kind, 0.5)
    assert SourceSpec(kind) == SourceSpec(kind, 0.0)
    assert SourceSpec.sps() == SourceSpec(SourceKind.SPS)
    assert SourceSpec.vacuum() == SourceSpec(SourceKind.VACUUM)


def test_nonideal_with_full_odd_weight_matches_css():
    pure, _ = emitted(SourceSpec.css(0.2))
    limit, _ = emitted(SourceSpec.nonideal_css(0.2, 1.0))
    n = min(len(pure), len(limit))
    np.testing.assert_allclose(limit[:n], pure[:n], rtol=0, atol=1e-15)


def test_the_even_sector_picks_the_multi_photon_term():
    """(P0, P1, Pm) reads m = 2 where the source emits an even-photon
    sector and m = 3 where it does not, decided by the parameters."""
    assert SourceSpec.sps().emitted_head == (0.0, 1.0, 0.0)
    assert SourceSpec.vacuum().emitted_head == (1.0, 0.0, 0.0)
    assert SourceSpec.nonideal_css(0.2, 1.0).emitted_head == SourceSpec.css(0.2).emitted_head
    assert [s.has_even_sector for s in ALL_SPECS] == [
        False, False, False, True, True, True, True, True, False, True,
    ]
    # P2 = (1 - a) mu^2 / (2 cosh mu) underflows here while P3 = mu^2 / 6
    # of the odd sector stays subnormal; the even sector still sets P0
    faint = SourceSpec.nonideal_css(1e-158, 1.0 - 1e-12)
    p0, _, p2 = faint.emitted_head
    assert faint.has_even_sector and p0 > 0.0 and p2 == 0.0
    assert 0.0 < SourceSpec.nonideal_css(1e-158, 1.0).emitted_head[2] < sys.float_info.min


@pytest.mark.parametrize("eta", [-0.1, 1.1, math.nan, math.inf, -math.inf])
def test_transmitted_rejects_an_efficiency_outside_the_unit_interval(eta):
    """A negative eta gave a probability above 1 and a negative tail, and
    NaN a series that "does not converge"; both now name eta."""
    with pytest.raises(DomainError, match="efficiency eta must lie in \\[0, 1\\]"):
        transmitted(SourceSpec.wcs(0.4), eta, 15)


def test_distribution_is_read_only():
    # the memo hands every caller the same object
    probs, _ = emitted(SourceSpec.wcs(0.4))
    with pytest.raises(TypeError):
        probs[0] = 0.5


@pytest.mark.parametrize("kind", list(SourceKind))
def test_emitted_head_is_computed_once_per_spec(monkeypatch, kind):
    """(P0, P1, Pm) of a spec is the first m + 1 terms of the emitted
    series, bitwise, computed once per distinct spec value: later reads,
    also through an equal spec built anew, return the same tuple."""
    mu = 0.0 if kind in (SourceKind.SPS, SourceKind.VACUUM) else 0.3
    spec = SourceSpec(kind, mu, 0.7 if kind is SourceKind.NONIDEAL_CSS else 1.0)
    # odd-only sources skip to P3
    m = 3 if kind in (SourceKind.CSS, SourceKind.SPS) else 2
    terms, _ = _series(spec, 1.0, 8)
    calls = []

    def counting(*args):
        calls.append(args)
        return _series(*args)

    monkeypatch.setattr(mdiqkd.sources, "_series", counting)
    SourceSpec.emitted_head.fget.cache_clear()
    head = spec.emitted_head
    assert spec.emitted_head is head
    assert SourceSpec(*spec).emitted_head is head
    assert calls == [(spec, 1.0, m + 1)]
    assert head == (terms[0], terms[1], terms[m])


def _capped_head(spec):
    """(P0, P1, Pm) from ``transmitted`` capped at m, padded with zeros to
    m + 1 entries."""
    m = 2 if spec.has_even_sector else 3
    probs, _ = transmitted(spec, 1.0, m)
    probs += (0.0,) * (m + 1 - len(probs))
    return probs[0], probs[1], probs[m]


def _outcome(read):
    try:
        return repr(read())
    except DomainError as exc:
        return f"DomainError: {exc}"


# from zero and subnormal intensities to past the photon cap at 512
_HEAD_MU = st.one_of(st.just(0.0), st.floats(-323.5, math.log10(600.0)).map(lambda e: 10.0**e))


@settings(max_examples=500, deadline=None)
@given(
    spec=st.one_of(
        st.builds(SourceSpec.css, _HEAD_MU),
        st.builds(SourceSpec.nonideal_css, _HEAD_MU, st.floats(0.0, 1.0, exclude_min=True)),
        st.builds(SourceSpec.wcs, _HEAD_MU),
        st.just(SourceSpec.sps()),
        st.just(SourceSpec.vacuum()),
    )
)
@example(SourceSpec.css(512.0))
@example(SourceSpec.wcs(5e-324))
def test_emitted_head_equals_the_capped_transmitted_path(spec):
    """The first terms of the series equal, bitwise, the capped and
    padded ``transmitted`` path, or both raise the same ``DomainError``:
    below m that path stops early only where its tail is exactly zero."""
    try:
        capped = _outcome(lambda: _capped_head(spec))
    except CutoffError:
        capped = None
    # The cap at m refuses a spec it cannot show to leave out less than
    # the tolerance: a CutoffError or, below the 512-photon cap, a series
    # that does not get there in time.  Past that cap both paths raise.
    assume(capped is not None and (spec.mu >= 512.0 or not capped.startswith("DomainError")))
    assert _outcome(lambda: spec.emitted_head) == capped


@pytest.mark.parametrize(
    "spec",
    [
        SourceSpec.wcs(800.0),
        SourceSpec.css(800.0),
        SourceSpec.nonideal_css(800.0, 0.7),
        SourceSpec.css(1e300),
        SourceSpec.wcs(460.0),
        SourceSpec.css(460.0),
        SourceSpec.nonideal_css(460.0, 0.7),
    ],
)
def test_intensity_beyond_the_photon_cap_is_a_domain_error(spec):
    # sinh and cosh overflow above mu ~ 710; the series still gets the
    # convergence error rather than an OverflowError.  At 460 they do not
    # overflow, but without loss 512 photons hold too little of the mass
    # to tell what a table cutoff drops.
    table = yield_tables(DetectorParams(1.0, 0.0), 20)
    with pytest.raises(DomainError, match="does not converge within 512 photons"):
        gains(spec, spec, table, 0.0)


_MU = st.floats(0.0, 1.0)
_SPECS = st.one_of(
    st.builds(SourceSpec.wcs, _MU),
    st.builds(SourceSpec.css, _MU),
    st.builds(SourceSpec.nonideal_css, _MU, st.floats(1e-3, 1.0)),
    st.just(SourceSpec.sps()),
    st.just(SourceSpec.vacuum()),
)
# A few units in the last place of the smallest subnormal: values that
# small carry no relative precision.
_SUBNORMAL_SLACK = 4 * 5e-324
_LOG_MU = st.floats(-300.0, math.log10(5.0)).map(lambda e: 10.0**e)


@settings(max_examples=200, deadline=None)
@given(
    spec=st.one_of(
        st.builds(SourceSpec.wcs, _LOG_MU),
        st.builds(SourceSpec.css, _LOG_MU),
        st.builds(SourceSpec.nonideal_css, _LOG_MU, st.floats(0.0, 1.0, exclude_min=True)),
    ),
)
# p(1) = a mu / sinh(mu) rounds to 0.5 here; exp of a log-series, which
# loses |log p(n)| units in the last place, gave 0.5000000000000275.
@example(SourceSpec.nonideal_css(6.4e-232, 0.5))
def test_emitted_statistics_match_the_oracle(spec):
    """Every kept p(n) is within a few roundings per photon of the
    50-digit statistics, and a cutoff at N is refused exactly where the
    50-digit tail above N is at least the tolerance."""
    tol = TAIL_TOLERANCE
    probs, _ = emitted(spec)
    want = oracle_distribution(spec, 1e-40)
    with mpmath.workdps(50):
        for n, got in enumerate(probs):
            assert abs(got - want[n]) <= 4 * (n + 1) * 2**-53 * want[n] + _SUBNORMAL_SLACK, n
        tails = [mpmath.fsum(want[n + 1 :]) for n in range(len(want))]
        # a tail within its own rounding of the tolerance may fall either way
        assume(all(abs(t - tol) > 1e-12 * tol for t in tails))
        for n, t in enumerate(tails):
            try:
                transmitted(spec, 1.0, n)
            except CutoffError:
                refused = True
            else:
                refused = False
            assert refused == (t >= tol), n


@settings(max_examples=150, deadline=None)
@given(
    spec=_SPECS,
    eta=st.one_of(st.just(0.0), st.just(1.0), st.floats(0.0, 1.0)),
    cutoff=st.integers(1, 20),
)
# At small x the geometric tail bound exceeds the exact tail by less
# than its rounding, which the bound's widening covers.
@example(SourceSpec.wcs(1.938234842519534e-06), 3.6899075685943434e-05, 1)
def test_transmitted_matches_binomial_fold(spec, eta, cutoff):
    """The closed form after loss equals the photon-by-photon fold of a
    deeply truncated source at k <= 2, its tail bounds the mass it drops,
    and it never runs past the cutoff.  A refused cutoff leaves out at
    least the tolerance of the folded mass, and an admitted one that the
    series reached leaves out less, each within rounding."""
    fold = binomial_fold(oracle_distribution(spec, 1e-40), eta)
    fold += [mpmath.mpf(0)] * (cutoff + 2 - len(fold))
    with mpmath.workdps(50):
        above = mpmath.fsum(fold[cutoff + 1 :])
    try:
        probs, tail = transmitted(spec, eta, cutoff)
    except CutoffError:
        assert above >= TAIL_TOLERANCE * (1.0 - 1e-12)
        return
    assert len(probs) <= cutoff + 1
    if len(probs) > cutoff:
        assert above < TAIL_TOLERANCE * (1.0 + 1e-12)
    with mpmath.workdps(50):
        for k, got in enumerate(probs[:3]):
            assert abs(got - fold[k]) <= 1e-13 * fold[k] + _SUBNORMAL_SLACK, k
        dropped = mpmath.fsum(fold[len(probs):])
        # a bound that underflows carries no digits to compare
        assert tail >= dropped or dropped < sys.float_info.min


@pytest.mark.parametrize("eta,length", [(0.4, 12), (4e-3, 7), (4e-5, 5), (0.0, 1)])
def test_transmitted_weak_coherent_state_shortens_with_loss(eta, length):
    """WCS mu = 0.4 emits 13 photon numbers above the tolerance; after
    loss the series stops once its tail is below the tolerance times the
    multi-photon mass.  The efficiencies are those of 0, 200 and 400 km
    of 0.2 dB/km fiber at detector efficiency 0.4, and no light."""
    probs, tail = transmitted(SourceSpec.wcs(0.4), eta, 15)
    assert len(probs) == length
    assert probs[0] == pytest.approx(math.exp(-0.4 * eta), rel=1e-15)
    assert 0.0 <= tail <= 1e-15 * sum(probs[2:])
