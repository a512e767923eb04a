"""Statistical fluctuations of observed gains for finite pulse counts.

Every observed gain Q is the frequency of a Bernoulli event over N
pulse pairs.  Two confidence constructions are supported:

* ``standard``: a Gaussian s-sigma band, delta = s / sqrt(N Q), giving
  [Q (1 - delta), Q (1 + delta)].  Five sigmas correspond to a total
  failure probability 2 (1 - Phi(5)) ~= 5.7e-7 per estimate.

* ``chernoff``: multiplicative Chernoff tails on the observed count
  X = N Q.  With per-use failure probability eps, the expected count E
  satisfies

      E >= X - sqrt(2 X ln(eps^(-3/2))),
      E <= X + sqrt(2 X ln(16 eps^(-4))),

  each side violated with probability at most eps.  Deviations are
  clamped to the physical count range [0, N] before converting back to
  rates.

``worst_case_decoy`` replaces each observed gain in the decoy algebra
by whichever interval endpoint weakens the bound, using the direction
tags attached to the algebra itself.  The pipeline is deterministic:
observed counts are taken at their expected (real-valued) positions
rather than sampled.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

from . import decoy
from .decoy import ChannelView, DecoyEstimate, DecoyInputs, Direction
from .errors import ConfigError, DomainError


class FluctuationMethod(enum.Enum):
    ASYMPTOTIC = "asymptotic"
    STANDARD = "standard"
    CHERNOFF = "chernoff"


# Per-use failure probability matching a two-sided 5-sigma band split
# over the two Chernoff tails: (1 - Phi(5)) = erfc(5 / sqrt(2)) / 2.
DEFAULT_EPSILON = 2.865e-7


@dataclass(frozen=True)
class FiniteKeyConfig:
    """Statistical treatment applied to every observed gain."""

    method: FluctuationMethod = FluctuationMethod.ASYMPTOTIC
    pulse_pairs: float = 1e14
    sigmas: float = 5.0
    epsilon: float = DEFAULT_EPSILON

    def __post_init__(self) -> None:
        if not isinstance(self.method, FluctuationMethod):
            raise ConfigError(f"unknown fluctuation method {self.method!r}")
        if not (math.isfinite(self.pulse_pairs) and self.pulse_pairs >= 1.0):
            raise ConfigError(
                f"pulse_pairs must be finite and >= 1, got {self.pulse_pairs}"
            )
        if not self.sigmas > 0.0:
            raise ConfigError(f"sigmas must be > 0, got {self.sigmas}")
        if not 0.0 < self.epsilon < 1.0:
            raise ConfigError(f"epsilon must lie in (0, 1), got {self.epsilon}")


@dataclass(frozen=True)
class FluctuationInterval:
    """Confidence interval for one gain, as rates in [0, 1]."""

    lower: float
    upper: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.lower <= self.upper:
            raise DomainError(
                f"invalid interval [{self.lower}, {self.upper}]"
            )

    def pick(self, direction: Direction) -> float:
        return self.lower if direction is Direction.LOW else self.upper


def standard_interval(gain: float, pulse_pairs: float, sigmas: float = 5.0) -> FluctuationInterval:
    """Gaussian s-sigma band around an observed gain.

    A vanishing gain carries no relative-width information; its upper
    limit falls back to the count level sigmas^2 at which a zero
    observation is still compatible with the band.
    """
    if not 0.0 <= gain <= 1.0:
        raise DomainError(f"gain must lie in [0, 1], got {gain}")
    if not pulse_pairs >= 1.0:
        raise DomainError(f"pulse_pairs must be >= 1, got {pulse_pairs}")
    if not sigmas > 0.0:
        raise DomainError(f"sigmas must be > 0, got {sigmas}")
    if gain == 0.0:
        return FluctuationInterval(0.0, sigmas * sigmas / pulse_pairs)
    delta = sigmas / math.sqrt(pulse_pairs * gain)
    return FluctuationInterval(max(0.0, gain * (1.0 - delta)), gain * (1.0 + delta))


def chernoff_interval(
    observed_count: float, epsilon: float, n_trials: float
) -> FluctuationInterval:
    """Chernoff band for the expected rate behind an observed count."""
    if observed_count < 0.0:
        raise DomainError(f"observed count must be >= 0, got {observed_count}")
    if not 0.0 < epsilon < 1.0:
        raise DomainError(f"epsilon must lie in (0, 1), got {epsilon}")
    if not n_trials >= observed_count:
        raise DomainError(
            f"n_trials ({n_trials}) must be >= observed count ({observed_count})"
        )
    x = observed_count
    log_inv = math.log(1.0 / epsilon)
    lower_dev = math.sqrt(2.0 * x * 1.5 * log_inv)
    upper_dev = math.sqrt(2.0 * x * (math.log(16.0) + 4.0 * log_inv))
    lower = max(0.0, x - lower_dev) / n_trials
    upper = min(n_trials, x + upper_dev) / n_trials
    return FluctuationInterval(lower, upper)


def gain_interval(gain: float, config: FiniteKeyConfig) -> FluctuationInterval:
    """Interval for one observed gain under the configured method."""
    if config.method is FluctuationMethod.ASYMPTOTIC:
        return FluctuationInterval(gain, gain)
    if config.method is FluctuationMethod.STANDARD:
        return standard_interval(gain, config.pulse_pairs, config.sigmas)
    return chernoff_interval(
        gain * config.pulse_pairs, config.epsilon, config.pulse_pairs
    )


def _worst_case_view(inputs: DecoyInputs, config: FiniteKeyConfig) -> ChannelView:
    observed = inputs.channel_view()

    def view(channel: str, field: str, direction: Direction) -> float:
        value = observed(channel, field, direction)
        return gain_interval(value, config).pick(direction)

    return view


def worst_case_decoy(
    inputs: DecoyInputs,
    config: FiniteKeyConfig,
    scheme: str,
) -> DecoyEstimate:
    """Decoy bounds with every gain at its least favorable endpoint.

    ``scheme`` selects the estimator: "one_decoy_css" or
    "two_decoy_generic".  With the asymptotic method this reduces
    exactly to the plain estimators.
    """
    if scheme == "one_decoy_css":
        decoy._require_odd_only(inputs.dist_signal, "signal")
        decoy._require_odd_only(inputs.dist_decoy, "decoy")
        view = _worst_case_view(inputs, config)
        return decoy._assemble_css(inputs.mu_signal, inputs.mu_decoy, view)
    if scheme == "two_decoy_generic":
        if inputs.vacuum is None:
            raise DomainError("two-decoy estimator requires vacuum-channel gains")
        view = _worst_case_view(inputs, config)
        return decoy._assemble_generic(
            decoy._first_probs(inputs.dist_signal),
            decoy._first_probs(inputs.dist_decoy),
            view,
        )
    raise ConfigError(f"unknown decoy scheme {scheme!r}")
