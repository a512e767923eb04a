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
  intensity alone bounds e11; m is the lowest multi-photon number the
  source emits (``sources.MULTI_PHOTON``).  The odd cat is its (P1, P3),
  P0 = 0 case: it reads no vacuum channels, and with P1 = mu / sinh(mu)
  and P3 = mu^3 / (6 sinh(mu)) the bound is the paper's one-decoy formula

    y11 >= [mu1^4 sinh^2(mu2) Q(mu2) - mu2^4 sinh^2(mu1) Q(mu1)]
           / [mu1^2 mu2^2 (mu1^2 - mu2^2)],
    e11 <= sinh^2(mu2) E(mu2) Q(mu2) / (mu2^2 y11).

  P0, P1 and Pm are read off the emitted closed-form series
  (``SourceSpec.emitted_head``, ``transmitted`` at eta = 1), keeping Pm
  of a faint source.

``estimate(spec_signal, spec_decoy, gains, bounds)`` is the one entry:
it takes the gains keyed by channel, those ``CHANNELS`` lists for the
kind, and rejects inputs that lack one.  Each evaluation builds one
interval table, a ``(lower, upper)`` pair per (channel, field), by
applying the ``bounds`` map to every observed gain, and the algebra
takes each gain at the endpoint, LOW or HIGH, that weakens the bound.
``finite_key.interval_kernel`` gives a method's confidence-interval
map; the default, ``exact``, is the identity interval of the asymptotic
case, so every path shares one copy of the formulas.  A yield bound
above 1 means the gains cancelled to rounding, and raises.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Dict, Mapping, Tuple

from .errors import DomainError
from .rates import GainSet
from .sources import SourceKind, SourceSpec

FLAG_CLAMPED = "clamped_to_zero"
FLAG_ERROR_ABOVE_HALF = "error_bound_above_half"

# Relative size below which the two-point denominator is treated as
# vanishing; P(1)P(m) ratios closer than this give garbage bounds.
DEGENERACY_TOLERANCE = 1e-12


# A (lower, upper) interval and a map from an observed gain to one.
Interval = Tuple[float, float]
Bounds = Callable[[float], Interval]

# Endpoints of an interval, and the observed fields of a channel in the
# order ``observe`` lists them.
LOW, HIGH = 0, 1
Q_Z, Q_X, EQ_X = 0, 1, 2

# One channel's (q_z, q_x, eq_x) intervals.  A channel names the two
# pulses of a pair: "s" signal, "d" decoy, "0" vacuum.
ChannelIntervals = Tuple[Interval, Interval, Interval]

# The channels each signal family's estimator reads.
_VACUUM_PLUS_DECOY = ("ss", "dd", "s0", "0s", "d0", "0d", "00")
CHANNELS = {
    SourceKind.SPS: ("ss",),
    SourceKind.CSS: ("ss", "dd"),
    SourceKind.NONIDEAL_CSS: _VACUUM_PLUS_DECOY,
    SourceKind.WCS: _VACUUM_PLUS_DECOY,
}

# A channel the estimator does not read: its gains are zero.  It stands
# in for the vacuum channels of a source with P0 = 0, where each enters
# as P0 times it and so drops out exactly.
_UNREAD: ChannelIntervals = ((0.0, 0.0),) * 3


def exact(gain: float) -> Interval:
    """The identity interval: the asymptotic case."""
    return gain, gain


def observe(g: GainSet, bounds: Bounds = exact) -> ChannelIntervals:
    """Intervals of the channel's q_z, q_x and eq_x gains."""
    return bounds(g.total_z), bounds(g.total_x), bounds(g.error_weighted_x)


@dataclass(frozen=True)
class DecoyEstimate:
    """Bounds handed to the key-rate formula, with diagnostic flags."""

    y11_lower: float
    e11_upper: float
    flags: frozenset


def _finalize(y11_z: float, y11_x: float, e11_raw: Callable[[float], float]) -> DecoyEstimate:
    """Clamp negative yields, derive e11 and collect flags.  A yield
    bound above 1 has no digits left: the gains cancelled to rounding."""
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
        e11 = e11_raw(y11_x)
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
    """
    _, p1s, pms = p_signal
    _, p1d, pmd = p_decoy
    det = p1d * pms - p1s * pmd
    scale = abs(p1d * pms) + abs(p1s * pmd)
    if scale == 0.0 or abs(det) <= DEGENERACY_TOLERANCE * scale:
        raise DomainError(
            "denominator_ill_conditioned: the two intensities give "
            "proportional (P1, Pm) photon probabilities"
        )
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
    numerator = p1s * pms * g_decoy - p1d * pmd * g_signal
    return numerator / denominator


def generic_e11_bound(
    p_decoy: tuple, eq_dd: float, eq_d0: float, eq_0d: float, eq_00: float, y11: float
) -> float:
    p0d, p1d, _ = p_decoy
    numerator = vacuum_substituted_gain(eq_dd, eq_d0, eq_0d, eq_00, p0d)
    return numerator / (p1d * p1d * y11)


def _assemble_generic(
    p_signal: tuple, p_decoy: tuple, table: Dict[str, ChannelIntervals]
) -> DecoyEstimate:
    vac = table.get("00", _UNREAD)

    def g(p0: float, diag: ChannelIntervals, row: ChannelIntervals,
          col: ChannelIntervals, field: int, favorable: int) -> float:
        # The diagonal term carries the sign of the whole g; the vacuum
        # cross terms enter with the opposite sign, the double-vacuum
        # term again with the same sign.
        opposite = HIGH - favorable
        return vacuum_substituted_gain(
            diag[field][favorable],
            row[field][opposite],
            col[field][opposite],
            vac[field][favorable],
            p0,
        )

    p0s = p_signal[0]
    p0d = p_decoy[0]
    ss, s0, zs = table["ss"], table.get("s0", _UNREAD), table.get("0s", _UNREAD)
    dd, d0, zd = table["dd"], table.get("d0", _UNREAD), table.get("0d", _UNREAD)
    y11_z = generic_y11_bound(
        p_signal, p_decoy, g(p0s, ss, s0, zs, Q_Z, HIGH), g(p0d, dd, d0, zd, Q_Z, LOW)
    )
    y11_x = generic_y11_bound(
        p_signal, p_decoy, g(p0s, ss, s0, zs, Q_X, HIGH), g(p0d, dd, d0, zd, Q_X, LOW)
    )
    eq_dd = dd[EQ_X][HIGH]
    eq_d0 = d0[EQ_X][LOW]
    eq_0d = zd[EQ_X][LOW]
    eq_00 = vac[EQ_X][HIGH]
    return _finalize(
        y11_z,
        y11_x,
        lambda y: generic_e11_bound(p_decoy, eq_dd, eq_d0, eq_0d, eq_00, y),
    )


def estimate(spec_signal: SourceSpec, spec_decoy: SourceSpec,
             gains: Mapping[str, GainSet], bounds: Bounds = exact) -> DecoyEstimate:
    """Decoy bounds from the gains of every channel in
    ``CHANNELS[spec_signal.kind]``, with every observed gain at the
    endpoint of its ``bounds`` interval that weakens the bound, by the
    estimator of the signal source's kind."""
    kind = spec_signal.kind
    channels = CHANNELS.get(kind)
    if channels is None:
        raise DomainError(f"no decoy estimator for a {kind.value} signal source")
    try:
        # Mirrored channels share one GainSet, and so one interval.
        by_gain = {id(gains[c]): gains[c] for c in channels}
    except KeyError:
        raise DomainError(
            f"{kind.value} decoy estimator needs the gains of channel(s) "
            f"{', '.join(c for c in channels if c not in gains)}"
        ) from None
    if kind is not SourceKind.SPS and not spec_signal.mu > spec_decoy.mu > 0.0:
        raise DomainError(
            f"intensities must satisfy mu_signal > mu_decoy > 0, got "
            f"({spec_signal.mu}, {spec_decoy.mu})"
        )
    intervals = {key: observe(g, bounds) for key, g in by_gain.items()}
    table = {c: intervals[id(gains[c])] for c in channels}
    if kind is SourceKind.SPS:
        q_z, q_x, eq_x = table["ss"]
        return _finalize(q_z[LOW], q_x[LOW], lambda y: eq_x[HIGH] / y)
    return _assemble_generic(spec_signal.emitted_head, spec_decoy.emitted_head, table)
