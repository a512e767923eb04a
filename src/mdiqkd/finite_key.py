"""Statistical fluctuations of observed gains for finite pulse counts.

Every observed gain Q is the frequency of a Bernoulli event over N
pulse pairs.  N (``pulse_pairs``) counts the pairs sent in each
(intensity pair, basis) setting: a kernel bands every channel the
estimator reads, in both bases, at N Q, so the intervals are sound when
all N pairs are sent in each setting, not when N is split over them.
Two confidence constructions are supported:

* ``standard``: a Gaussian s-sigma band, delta = s / sqrt(N Q), giving
  [Q (1 - delta), Q (1 + delta)].  Five sigmas correspond to a total
  failure probability 2 (1 - Phi(5)) ~= 5.7e-7 per estimate.

* ``chernoff``: multiplicative Chernoff tails on the observed count
  X = N Q.  With per-use failure probability eps, the expected count E
  satisfies

      E >= X - sqrt(2 X ln(eps^(-3/2))),
      E <= X + sqrt(2 X ln(16 eps^(-4))),

  each side violated with probability at most eps.  The deviations
  are taken over N before they are applied, Q -/+ sqrt(2 Q c / N), and
  the endpoints clamped to the physical range [0, 1]; each endpoint is
  then monotone in N and contains Q however far its deviation falls
  below the rounding of Q.

Each method's formula is one private kernel returning ``(lower,
upper)``; ``interval_kernel`` selects it for a ``config.FiniteKeyConfig``.
``decoy.estimate(..., interval_kernel(config))``, which picks the
estimator by the source kind, runs on those intervals, so each observed
gain enters the bound at whichever endpoint weakens it.  The pipeline is
deterministic: observed counts are taken at their expected
(real-valued) positions rather than sampled.
"""

from __future__ import annotations

import enum
import math
from functools import partial

from .decoy import Bounds, Interval, exact


class FluctuationMethod(enum.Enum):
    ASYMPTOTIC = "asymptotic"
    STANDARD = "standard"
    CHERNOFF = "chernoff"


# Per-use failure probability matching a two-sided 5-sigma band split
# over the two Chernoff tails: (1 - Phi(5)) = erfc(5 / sqrt(2)) / 2.
DEFAULT_EPSILON = 2.865e-7


def _standard(pulse_pairs: float, sigmas: float, gain: float) -> Interval:
    # A vanishing gain carries no relative-width information; its upper
    # limit falls back to the count level sigmas^2 at which a zero
    # observation is still compatible with the band.
    if gain == 0.0:
        return 0.0, sigmas * sigmas / pulse_pairs
    delta = sigmas / math.sqrt(pulse_pairs * gain)
    return max(0.0, gain * (1.0 - delta)), gain * (1.0 + delta)


def _chernoff(pulse_pairs: float, epsilon: float, gain: float) -> Interval:
    # The deviations as rates: each endpoint is a chain of roundings
    # monotone in N, so it moves towards Q as N grows and never passes it.
    log_inv = math.log(1.0 / epsilon)
    lower_dev = math.sqrt(2.0 * gain * 1.5 * log_inv / pulse_pairs)
    upper_dev = math.sqrt(2.0 * gain * (math.log(16.0) + 4.0 * log_inv) / pulse_pairs)
    return max(0.0, gain - lower_dev), min(1.0, gain + upper_dev)


def interval_kernel(config) -> Bounds:
    """``gain -> (lower, upper)`` under the method of ``config``, a
    ``config.FiniteKeyConfig``, with ``0 <= lower <= gain <= upper``.
    Unchecked: ``FiniteKeyConfig`` validates N, sigma and epsilon, and
    ``GainSet`` every gain.  The kernel's settings are bound in front of
    the gain, so a call runs one Python frame."""
    if config.method is FluctuationMethod.STANDARD:
        return partial(_standard, config.pulse_pairs, config.sigmas)
    if config.method is FluctuationMethod.CHERNOFF:
        return partial(_chernoff, config.pulse_pairs, config.epsilon)
    return exact
