"""Decoy-state bounds on the single-photon-pair yield and error rate.

The estimator follows from the signal source's photon statistics, so
``estimate`` picks it by the signal spec's ``kind``:

* ``sps``: the (1, 1) channel is observed directly; y11 is the signal
  gain and e11 its error rate.

* ``wcs``, ``nonideal_css`` and ``css``: the vacuum-plus-decoy
  two-point bound (Ma & Razavi, PRA 86, 062319 (2012)).
  Vacuum-substituted gains remove the 0-photon rows and columns,

    g(mu) = Q(mu,mu) - P0 Q(mu,0) - P0 Q(0,mu) + P0^2 Q(0,0),

  after which a two-point estimate in (P1, Pm) bounds y11 and the decoy
  intensity alone bounds e11, as its error-weighted g over P1^2 y11.
  Whether the source emits an even-photon sector
  (``SourceSpec.has_even_sector``) picks m = 2 and the vacuum channels
  (``channels``).  Without one, P0 = 0, m = 3 and no vacuum channel is
  read: with P1 = mu / sinh(mu) and P3 = mu^3 / (6 sinh(mu))
  the odd cat's bound is the paper's one-decoy formula

    y11 >= [mu1^4 sinh^2(mu2) Q(mu2) - mu2^4 sinh^2(mu1) Q(mu1)]
           / [mu1^2 mu2^2 (mu1^2 - mu2^2)],
    e11 <= sinh^2(mu2) E(mu2) Q(mu2) / (mu2^2 y11).

  P0, P1 and Pm are read off the emitted closed-form series
  (``SourceSpec.emitted_head``, the first terms of the series), keeping
  Pm of a faint source.

``estimate(spec_signal, spec_decoy, gains, bounds)`` takes the gains
keyed by channel, those ``channels(spec_signal)`` lists, and rejects
inputs that lack one.  It is a setup and a step, and the pipelines call
the two apart: ``estimator`` checks the intensities, reads the emitted
heads and applies the ``bounds`` map to the vacuum channel "00" once;
its step applies it to each (channel, field) the bound reads and no
other, and one helper reads every g, the e11 numerator's included, with
each gain at the endpoint, LOW or HIGH, that weakens the bound.
``finite_key.interval_kernel`` gives a method's confidence-interval
map; the default, ``exact``, is the identity interval of the asymptotic
case, so every path shares one copy of the formulas.  A yield bound
above 1 means the gains cancelled to rounding, and raises.
"""

from __future__ import annotations

import math
import sys
from collections.abc import Callable, Mapping

from .errors import DomainError, record
from .rates import GainSet
from .sources import SourceKind, SourceSpec

FLAG_CLAMPED = "clamped_to_zero"
FLAG_ERROR_ABOVE_HALF = "error_bound_above_half"

# Relative size below which the two-point denominator is treated as
# vanishing; P(1)P(m) ratios closer than this give garbage bounds.
DEGENERACY_TOLERANCE = 1e-12


# A (lower, upper) interval and a map from an observed gain to one.
Interval = tuple[float, float]
Bounds = Callable[[float], Interval]

# Endpoints of an interval, and the observed fields of a channel in the
# order ``observe`` lists them.
LOW, HIGH = 0, 1
Q_Z, Q_X, EQ_X = 0, 1, 2

# One channel's (q_z, q_x, eq_x) intervals.  A channel names the two
# pulses of a pair: "s" signal, "d" decoy, "0" vacuum.
ChannelIntervals = tuple[Interval, Interval, Interval]


def channels(spec: SourceSpec) -> tuple[str, ...]:
    """The channels the estimator for signal source ``spec`` reads: none
    for the vacuum, the signal pair for a single photon, else the signal
    and decoy pairs, with the vacuum channels where P0 > 0."""
    if spec.kind is SourceKind.VACUUM:
        return ()
    if spec.kind is SourceKind.SPS:
        return ("ss",)
    if spec.has_even_sector:
        return ("ss", "dd", "s0", "0s", "d0", "0d", "00")
    return ("ss", "dd")


def exact(gain: float) -> Interval:
    """The identity interval: the asymptotic case."""
    return gain, gain


def observe(g: GainSet, bounds: Bounds = exact) -> ChannelIntervals:
    """Intervals of the channel's q_z, q_x and eq_x gains."""
    return bounds(g.total_z), bounds(g.total_x), bounds(g.error_weighted_x)


class DecoyEstimate(record("DecoyEstimate", "y11_lower e11_upper flags")):
    """Bounds handed to the key-rate formula, with diagnostic flags (a
    frozenset)."""

    __slots__ = ()


def _finalize(y11_z: float, y11_x: float, eq11: float, weight: float) -> DecoyEstimate:
    """Clamp negative yields, derive e11 = eq11 / (weight y11_x), with
    ``weight`` the decoy's P1^2, and collect flags.  A yield bound above
    1 has no digits left: the gains cancelled to rounding."""
    if y11_z > 1.0 or y11_x > 1.0:
        raise DomainError(
            f"bound_without_digits: the single-photon yield bounds ({y11_z}, {y11_x}) "
            "exceed 1, so the observed gains cancelled to rounding"
        )
    flags = set()
    if y11_z < 0.0 or y11_x < 0.0:
        flags.add(FLAG_CLAMPED)
    y11_z = max(0.0, y11_z)
    if y11_x <= 0.0:
        e11 = math.inf
    else:
        e11 = eq11 / (weight * y11_x)
    if e11 > 0.5:
        flags.add(FLAG_ERROR_ABOVE_HALF)
    return DecoyEstimate(y11_lower=y11_z, e11_upper=e11, flags=frozenset(flags))


def vacuum_substituted_gain(q_mm: float, q_m0: float, q_0m: float, q_00: float, p0: float) -> float:
    """Gain with the 0-photon rows and columns projected out."""
    return q_mm - p0 * q_m0 - p0 * q_0m + p0 * p0 * q_00


def generic_y11_bound(
    p_signal: tuple, p_decoy: tuple, g_signal: float, g_decoy: float
) -> float:
    """Two-point yield bound from vacuum-substituted gains.

    ``p_*`` are the (P0, P1, Pm) photon probabilities of each intensity,
    m the lowest multi-photon number the source emits.  Raises when the
    two intensities give proportional (P1, Pm) pairs, in which case the
    linear system is singular.  The determinant must be positive (true
    for every supported source family once the signal intensity exceeds
    the decoy intensity); the sign conventions of the bound rely on it.
    A positive subnormal gain, whose relative digits are lost, raises.
    """
    _, p1s, pms = p_signal
    _, p1d, pmd = p_decoy
    det = p1d * pms - p1s * pmd
    scale = abs(p1d * pms) + abs(p1s * pmd)
    if scale == 0.0 or abs(det) <= DEGENERACY_TOLERANCE * scale:
        raise DomainError("denominator_ill_conditioned: " + (
            "the multi-photon probability Pm vanished at both intensities"
            if pms == pmd == 0.0 else
            "the two intensities give proportional (P1, Pm) photon probabilities"
        ))
    if det < 0.0:
        raise DomainError(
            "two-point estimator requires P1(decoy) Pm(signal) > "
            "P1(signal) Pm(decoy); check the intensity ordering"
        )
    denominator = p1s * p1d * det
    if denominator == 0.0:
        raise DomainError(
            "denominator_underflow: P1(signal) P1(decoy) times the two-point "
            "determinant is below the smallest double"
        )
    # A negative g is the residue of a vacuum substitution that cancelled
    # (a subnormal dark count gives -1.3e-318), and passes as before.
    if 0.0 < g_signal < sys.float_info.min or 0.0 < g_decoy < sys.float_info.min:
        raise DomainError(
            f"bound_without_digits: the gains ({g_signal}, {g_decoy}) include a "
            "subnormal, whose lost digits the two-point bound cannot absorb"
        )
    numerator = p1s * pms * g_decoy - p1d * pmd * g_signal
    return numerator / denominator


def estimator(spec_signal: SourceSpec, spec_decoy: SourceSpec, bounds: Bounds = exact,
              vacuum: GainSet | None = None) -> Callable[..., DecoyEstimate]:
    """The setup of ``estimate`` for one pair of intensities and one
    ``bounds`` map: the checks, the emitted heads and, where the signal
    source has an even-photon sector, the intervals of ``vacuum``, the
    "00" channel's gains.  Returns the step, a function of the gains of
    the other channels ``channels(spec_signal)`` lists, in that order,
    that observes only the fields the bound reads.  A vacuum channel
    given as the same GainSet as its mirror shares its intervals."""
    kind = spec_signal.kind
    if kind is SourceKind.VACUUM:
        raise DomainError(f"no decoy estimator for a {kind.value} signal source")
    if kind is SourceKind.SPS:
        def observed(ss, *_) -> DecoyEstimate:
            q_z, q_x, eq_x = observe(ss, bounds)
            return _finalize(q_z[LOW], q_x[LOW], eq_x[HIGH], 1.0)

        return observed
    if not spec_signal.mu > spec_decoy.mu > 0.0:
        raise DomainError(
            f"intensities must satisfy mu_signal > mu_decoy > 0, got "
            f"({spec_signal.mu}, {spec_decoy.mu})"
        )
    # The vacuum channels of a source with P0 = 0 are not read: they
    # enter as P0 times zero gains and so drop out exactly.
    zero = ((0.0, 0.0),) * 3
    even = spec_signal.has_even_sector
    vac = observe(vacuum, bounds) if even else zero

    def g(p0: float, diag: tuple, row: tuple, col: tuple, field: int, end: int) -> float:
        # The diagonal and double-vacuum terms carry the sign of the
        # whole g and are read at ``end``; the cross terms enter with the
        # opposite sign and are read at the other end.
        other = HIGH - end
        return vacuum_substituted_gain(
            diag[field][end], row[field][other], col[field][other], vac[field][end], p0
        )

    p_signal, p_decoy = spec_signal.emitted_head, spec_decoy.emitted_head
    p0s, p0d, p1d = p_signal[0], p_decoy[0], p_decoy[1]
    weight = p1d * p1d

    def two_point(ss, dd, s0=None, zs=None, d0=None, zd=None) -> DecoyEstimate:
        # The signal's pairs are read in Q_Z and Q_X alone, the decoy's
        # in all three fields.
        sig = bounds(ss.total_z), bounds(ss.total_x)
        dec = observe(dd, bounds)
        if even:
            s_row = bounds(s0.total_z), bounds(s0.total_x)
            s_col = s_row if zs is s0 else (bounds(zs.total_z), bounds(zs.total_x))
            d_row = observe(d0, bounds)
            d_col = d_row if zd is d0 else observe(zd, bounds)
        else:
            s_row = s_col = d_row = d_col = zero
        y11_z = generic_y11_bound(p_signal, p_decoy, g(p0s, sig, s_row, s_col, Q_Z, HIGH),
                                  g(p0d, dec, d_row, d_col, Q_Z, LOW))
        y11_x = generic_y11_bound(p_signal, p_decoy, g(p0s, sig, s_row, s_col, Q_X, HIGH),
                                  g(p0d, dec, d_row, d_col, Q_X, LOW))
        return _finalize(y11_z, y11_x, g(p0d, dec, d_row, d_col, EQ_X, HIGH), weight)

    return two_point


def estimate(spec_signal: SourceSpec, spec_decoy: SourceSpec,
             gains: Mapping[str, GainSet], bounds: Bounds = exact) -> DecoyEstimate:
    """Decoy bounds from the gains of every channel that
    ``channels(spec_signal)`` lists, with every observed gain at the
    endpoint of its ``bounds`` interval that weakens the bound, by the
    estimator of the signal source's kind: ``estimator``'s setup and
    its step."""
    read = channels(spec_signal)
    missing = [c for c in read if c not in gains]
    if missing:
        raise DomainError(
            f"{spec_signal.kind.value} decoy estimator needs the gains of channel(s) "
            f"{', '.join(missing)}"
        )
    step = estimator(spec_signal, spec_decoy, bounds, gains.get("00"))
    return step(*[gains[c] for c in read if c != "00"])
