"""Decoy-state bounds on the single-photon-pair yield and error rate.

Two estimators are provided.

``one_decoy_css`` exploits the odd-only photon statistics of an ideal
coherent-state superposition: with P(0) = P(2) = 0 a single decoy
intensity already pins down the (1, 1) contribution,

    y11 >= [mu1^4 sinh^2(mu2) Q(mu2) - mu2^4 sinh^2(mu1) Q(mu1)]
           / [mu1^2 mu2^2 (mu1^2 - mu2^2)],
    e11 <= sinh^2(mu2) E(mu2) Q(mu2) / (mu2^2 y11).

``two_decoy_generic`` works for any source with nonvanishing one- and
two-photon probabilities (phase-randomized coherent states, imperfect
superpositions).  Vacuum-substituted gains remove the 0-photon rows and
columns,

    g(mu) = Q(mu,mu) - P0 Q(mu,0) - P0 Q(0,mu) + P0^2 Q(0,0),

after which a two-point estimate in (P1, P2) bounds y11 and the decoy
intensity alone bounds e11.

Each observed gain enters the algebra through a ``direction`` tag that
says whether replacing it by a smaller (LOW) or larger (HIGH) value
weakens the bound.  The plain estimators ignore the tags; the finite-key
layer substitutes confidence-interval endpoints according to them, so
both paths share one copy of the formulas.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Callable, Optional

from .errors import DomainError
from .rates import GainSet
from .sources import PhotonDistribution

FLAG_CLAMPED = "clamped_to_zero"
FLAG_ERROR_ABOVE_HALF = "error_bound_above_half"

# Relative size below which the two-decoy denominator is treated as
# vanishing; P(1)P(2) ratios closer than this give garbage bounds.
DEGENERACY_TOLERANCE = 1e-12

# Maximum even-photon probability mass tolerated by the one-decoy
# estimator, whose algebra assumes odd-only statistics.
CSS_PURITY_TOLERANCE = 1e-12


class Direction(enum.Enum):
    """Which way a statistical fluctuation weakens a bound."""

    LOW = "low"
    HIGH = "high"


# View of the observed channel scalars: (channel, field, direction) -> value.
# Channels: "ss", "dd" (signal/decoy intensity pairs), "s0", "0s", "d0",
# "0d", "00" (vacuum-substituted).  Fields: "q_z", "q_x", "eq_x".
ChannelView = Callable[[str, str, Direction], float]

_FIELD_ATTR = {
    "q_z": "total_z",
    "q_x": "total_x",
    "eq_x": "error_weighted_x",
}


@dataclass(frozen=True)
class VacuumGains:
    """Gains of the five channels in which at least one pulse is vacuum."""

    signal_vacuum: GainSet
    vacuum_signal: GainSet
    decoy_vacuum: GainSet
    vacuum_decoy: GainSet
    vacuum_vacuum: GainSet


@dataclass(frozen=True)
class DecoyInputs:
    """Everything a decoy estimator may consume.

    ``vacuum`` may be None for the one-decoy estimator, which never
    looks at vacuum channels.
    """

    mu_signal: float
    mu_decoy: float
    dist_signal: PhotonDistribution
    dist_decoy: PhotonDistribution
    gains_signal: GainSet
    gains_decoy: GainSet
    vacuum: Optional[VacuumGains] = None

    def __post_init__(self) -> None:
        if not self.mu_signal > self.mu_decoy > 0.0:
            raise DomainError(
                f"intensities must satisfy mu_signal > mu_decoy > 0, got "
                f"({self.mu_signal}, {self.mu_decoy})"
            )

    def channel_view(self) -> ChannelView:
        """Observed values, independent of the requested direction."""
        channels = {"ss": self.gains_signal, "dd": self.gains_decoy}
        if self.vacuum is not None:
            channels.update(
                s0=self.vacuum.signal_vacuum,
                d0=self.vacuum.decoy_vacuum,
                **{
                    "0s": self.vacuum.vacuum_signal,
                    "0d": self.vacuum.vacuum_decoy,
                    "00": self.vacuum.vacuum_vacuum,
                },
            )

        def view(channel: str, field: str, direction: Direction) -> float:
            if channel not in channels:
                raise DomainError(
                    f"estimator needs channel {channel!r} but no vacuum-channel "
                    f"gains were supplied"
                )
            return getattr(channels[channel], _FIELD_ATTR[field])

        return view


@dataclass(frozen=True)
class DecoyEstimate:
    """Bounds handed to the key-rate formula, with diagnostic flags."""

    y11_lower: float
    e11_upper: float
    flags: frozenset


def _finalize(y11_z: float, y11_x: float, e11_raw: Callable[[float], float]) -> DecoyEstimate:
    """Clamp negative yields, derive e11 and collect flags."""
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


def css_y11_bound(mu1: float, mu2: float, q_signal: float, q_decoy: float) -> float:
    """One-decoy yield bound; may be negative before clamping."""
    s1, s2 = math.sinh(mu1), math.sinh(mu2)
    numerator = mu1**4 * s2 * s2 * q_decoy - mu2**4 * s1 * s1 * q_signal
    denominator = mu1 * mu1 * mu2 * mu2 * (mu1 * mu1 - mu2 * mu2)
    return numerator / denominator


def css_e11_bound(mu2: float, eq_decoy: float, y11: float) -> float:
    s2 = math.sinh(mu2)
    return s2 * s2 * eq_decoy / (mu2 * mu2 * y11)


def _assemble_css(mu1: float, mu2: float, view: ChannelView) -> DecoyEstimate:
    y11_z = css_y11_bound(
        mu1,
        mu2,
        view("ss", "q_z", Direction.HIGH),
        view("dd", "q_z", Direction.LOW),
    )
    y11_x = css_y11_bound(
        mu1,
        mu2,
        view("ss", "q_x", Direction.HIGH),
        view("dd", "q_x", Direction.LOW),
    )
    eq_x = view("dd", "eq_x", Direction.HIGH)
    return _finalize(y11_z, y11_x, lambda y: css_e11_bound(mu2, eq_x, y))


def vacuum_substituted_gain(q_mm: float, q_m0: float, q_0m: float, q_00: float, p0: float) -> float:
    """Gain with the 0-photon rows and columns projected out."""
    return q_mm - p0 * q_m0 - p0 * q_0m + p0 * p0 * q_00


def generic_y11_bound(
    p_signal: tuple, p_decoy: tuple, g_signal: float, g_decoy: float
) -> float:
    """Two-decoy yield bound from vacuum-substituted gains.

    ``p_*`` are the (P0, P1, P2) photon probabilities of each intensity.
    Raises when the two intensities give proportional (P1, P2) pairs, in
    which case the linear system is singular.  The determinant must be
    positive (true for every supported source family once the signal
    intensity exceeds the decoy intensity); the sign conventions of the
    bound rely on it.
    """
    _, p1s, p2s = p_signal
    _, p1d, p2d = p_decoy
    det = p1d * p2s - p1s * p2d
    scale = abs(p1d * p2s) + abs(p1s * p2d)
    if scale == 0.0 or abs(det) <= DEGENERACY_TOLERANCE * scale:
        raise DomainError(
            "denominator_ill_conditioned: the two intensities give "
            "proportional (P1, P2) photon probabilities"
        )
    if det < 0.0:
        raise DomainError(
            "two-decoy estimator requires P1(decoy) P2(signal) > "
            "P1(signal) P2(decoy); check the intensity ordering"
        )
    numerator = p1s * p2s * g_decoy - p1d * p2d * g_signal
    return numerator / (p1s * p1d * det)


def generic_e11_bound(
    p_decoy: tuple, eq_dd: float, eq_d0: float, eq_0d: float, eq_00: float, y11: float
) -> float:
    p0d, p1d, _ = p_decoy
    numerator = vacuum_substituted_gain(eq_dd, eq_d0, eq_0d, eq_00, p0d)
    return numerator / (p1d * p1d * y11)


def _assemble_generic(
    p_signal: tuple, p_decoy: tuple, view: ChannelView
) -> DecoyEstimate:
    p0s = p_signal[0]
    p0d = p_decoy[0]

    def g(channel: str, field: str, favorable: Direction) -> float:
        # The diagonal term carries the sign of the whole g; the vacuum
        # cross terms enter with the opposite sign, the double-vacuum
        # term again with the same sign.
        opposite = Direction.HIGH if favorable is Direction.LOW else Direction.LOW
        p0 = p0s if channel == "ss" else p0d
        zero_row = "s0" if channel == "ss" else "d0"
        zero_col = "0s" if channel == "ss" else "0d"
        return vacuum_substituted_gain(
            view(channel, field, favorable),
            view(zero_row, field, opposite),
            view(zero_col, field, opposite),
            view("00", field, favorable),
            p0,
        )

    y11_z = generic_y11_bound(
        p_signal, p_decoy, g("ss", "q_z", Direction.HIGH), g("dd", "q_z", Direction.LOW)
    )
    y11_x = generic_y11_bound(
        p_signal, p_decoy, g("ss", "q_x", Direction.HIGH), g("dd", "q_x", Direction.LOW)
    )
    eq_dd = view("dd", "eq_x", Direction.HIGH)
    eq_d0 = view("d0", "eq_x", Direction.LOW)
    eq_0d = view("0d", "eq_x", Direction.LOW)
    eq_00 = view("00", "eq_x", Direction.HIGH)
    return _finalize(
        y11_z,
        y11_x,
        lambda y: generic_e11_bound(p_decoy, eq_dd, eq_d0, eq_0d, eq_00, y),
    )


def _first_probs(dist: PhotonDistribution) -> tuple:
    return (dist.prob(0), dist.prob(1), dist.prob(2))


def _require_odd_only(dist: PhotonDistribution, label: str) -> None:
    even_mass = sum(dist.probabilities[0::2])
    if even_mass > CSS_PURITY_TOLERANCE:
        raise DomainError(
            f"one-decoy estimator requires odd-only photon statistics, but the "
            f"{label} source has even-photon mass {even_mass:.3g}"
        )


def one_decoy_css(inputs: DecoyInputs) -> DecoyEstimate:
    """Single-decoy bounds valid for odd-only photon statistics."""
    _require_odd_only(inputs.dist_signal, "signal")
    _require_odd_only(inputs.dist_decoy, "decoy")
    return _assemble_css(inputs.mu_signal, inputs.mu_decoy, inputs.channel_view())


def two_decoy_generic(inputs: DecoyInputs) -> DecoyEstimate:
    """Signal + decoy + vacuum bounds for general photon statistics."""
    if inputs.vacuum is None:
        raise DomainError("two-decoy estimator requires vacuum-channel gains")
    return _assemble_generic(
        _first_probs(inputs.dist_signal),
        _first_probs(inputs.dist_decoy),
        inputs.channel_view(),
    )
