"""Independent reference implementations used to validate the library.

Everything here is written for transparency rather than speed, using
exact arithmetic where possible:

* ``oracle_propagate`` expands the beam-splitter action symbolically in
  the ring Q[sqrt(2)], applying one creation operator at a time, so its
  output probabilities are exact rationals.
* ``oracle_bell_yield`` enumerates every photon-survival and dark-count
  pattern explicitly instead of using closed-form click probabilities.
* ``oracle_gain`` is a plain double loop over photon numbers.
* ``dense_tables`` lays a yield table out as one matrix per channel, so
  the double loop and elementwise checks can read it.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from functools import lru_cache
from typing import Dict, Tuple

Config = Tuple[int, int, int, int]

# Output-mode amplitudes of one input photon, as (rational, sqrt2) pairs
# meaning a + b*sqrt(2).  Ports split as 1 -> (out1 + out2)/sqrt(2),
# 2 -> (out1 - out2)/sqrt(2); diagonal polarizations expand as
# +/- = (H +/- V)/sqrt(2).  Output modes: (1H, 1V, 2H, 2V).
HALF = Fraction(1, 2)


def _photon_amplitudes(port: int, pol: str):
    port_signs = {1: (1, 1), 2: (1, -1)}[port]
    if pol in ("h", "v"):
        # 1/sqrt(2) = 0 + (1/2) sqrt(2)
        return {
            (pol, arm): (Fraction(0), HALF * sign)
            for arm, sign in zip((1, 2), port_signs)
        }
    pol_signs = {"plus": (1, 1), "minus": (1, -1)}[pol]
    out = {}
    for p, ps in zip(("h", "v"), pol_signs):
        for arm, s in zip((1, 2), port_signs):
            # (1/sqrt 2)(1/sqrt 2) = 1/2
            out[(p, arm)] = (HALF * ps * s, Fraction(0))
    return out


_MODE_INDEX = {("h", 1): 0, ("v", 1): 1, ("h", 2): 2, ("v", 2): 3}


def _mul(x, y):
    # (a + b r)(c + d r) with r^2 = 2
    a, b = x
    c, d = y
    return (a * c + 2 * b * d, a * d + b * c)


def _add(x, y):
    return (x[0] + y[0], x[1] + y[1])


def oracle_propagate(i: int, pol_a: str, j: int, pol_b: str) -> Dict[Config, Fraction]:
    """Exact output distribution of (i, pol_a) on port 1, (j, pol_b) on 2."""
    state = {(0, 0, 0, 0): (Fraction(1), Fraction(0))}
    photons = [(1, pol_a)] * i + [(2, pol_b)] * j
    for port, pol in photons:
        amps = _photon_amplitudes(port, pol)
        new_state: Dict[Config, Tuple[Fraction, Fraction]] = {}
        for config, coeff in state.items():
            for mode, amp in amps.items():
                idx = _MODE_INDEX[mode]
                bumped = list(config)
                bumped[idx] += 1
                key = tuple(bumped)
                term = _mul(coeff, amp)
                new_state[key] = _add(new_state.get(key, (Fraction(0), Fraction(0))), term)
        state = new_state

    norm = Fraction(math.factorial(i) * math.factorial(j))
    result: Dict[Config, Fraction] = {}
    for config, (a, b) in state.items():
        # each amplitude is purely rational or purely sqrt(2)-rational,
        # so the squared modulus stays rational
        assert a == 0 or b == 0, (config, a, b)
        weight = Fraction(math.prod(math.factorial(n) for n in config))
        prob = (a * a + 2 * b * b) * weight / norm
        if prob:
            result[config] = prob
    return result


def _click_patterns(outcome: str):
    # detector order (1H, 1V, 2H, 2V)
    if outcome == "psi_plus":
        return ((True, True, False, False), (False, False, True, True))
    if outcome == "psi_minus":
        return ((True, False, False, True), (False, True, True, False))
    raise ValueError(outcome)


@lru_cache(maxsize=None)
def oracle_click_yield(config: Config, outcome: str, eta: Fraction, dark: Fraction) -> Fraction:
    """Probability of the outcome's click pattern for one Fock input.

    Every subset of surviving photons and every dark-count pattern is
    enumerated explicitly.
    """
    survive = []
    for n in config:
        per_mode = []
        for k in range(n + 1):
            weight = (
                Fraction(math.comb(n, k)) * eta**k * (1 - eta) ** (n - k)
            )
            per_mode.append((k, weight))
        survive.append(per_mode)

    total = Fraction(0)
    for combo in itertools.product(*survive):
        photon_weight = math.prod(w for _, w in combo)
        lit = [k > 0 for k, _ in combo]
        for darks in itertools.product((False, True), repeat=4):
            dark_weight = math.prod(dark if d else 1 - dark for d in darks)
            clicks = tuple(l or d for l, d in zip(lit, darks))
            if clicks in _click_patterns(outcome):
                total += photon_weight * dark_weight
    return total


def oracle_bell_yield(
    distribution: Dict[Config, Fraction], outcome: str, eta: Fraction, dark: Fraction
) -> Fraction:
    return sum(
        prob * oracle_click_yield(config, outcome, eta, dark)
        for config, prob in distribution.items()
    )


def oracle_gain(probs_a, probs_b, yields) -> float:
    """Plain double-sum contraction of a yield matrix."""
    total = 0.0
    for i, pa in enumerate(probs_a):
        for j, pb in enumerate(probs_b):
            total += pa * pb * yields[i][j]
    return total


def dense_tables(table) -> Dict[str, list]:
    """The four channel matrices of a ``YieldTable`` as nested lists;
    entry [i][j] contracts the unit photon-number vectors e_i and e_j."""
    size = table.cutoff + 1
    pairs = [[table.pair(i, j) for j in range(size)] for i in range(size)]
    names = ("correct_z", "error_z", "correct_x", "error_x")
    return {
        name: [[yields[k] for yields in row] for row in pairs]
        for k, name in enumerate(names)
    }
