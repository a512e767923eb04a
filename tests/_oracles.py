"""Independent reference implementations used to validate the library.

Everything here is written for transparency rather than speed, using
exact arithmetic where possible:

* ``oracle_propagate`` expands the beam-splitter action symbolically in
  the ring Q[sqrt(2)], applying one creation operator at a time, so its
  output probabilities are exact rationals.
* ``oracle_bell_yield`` enumerates every photon-survival and dark-count
  pattern explicitly instead of using closed-form click probabilities.
* ``oracle_gain`` is a plain double loop over photon numbers.
* ``oracle_lossless_pair`` is the unit-efficiency yield of one photon
  pair from the closed form's A/B table, written pair by pair; the
  library builds whole blocks of it with the same float operations.
* ``dense_tables`` lays a yield table out at its efficiency as one
  matrix per channel, contracting the binomial rows of single Fock
  states after loss (``binomial_row``), so the double loop and
  elementwise checks can read it.
* ``oracle_distribution`` gives a source's photon-number statistics in
  50-digit arithmetic, and ``binomial_fold`` applies loss to them the
  long way, photon by photon: p'(k) = sum_n p(n) C(n, k) eta^k
  (1 - eta)^(n - k).
* ``oracle_wcs_gains`` gives the four channel gains of two weak coherent
  sources in closed form (modified Bessel function I0), in 50 digits.
* ``oracle_css_y11`` is the paper's one-decoy bound for odd cat sources,
  written in the intensities, against which the library's two-point
  bound in (P1, P3) is checked.
* ``decoy_certificate`` writes the two-point y11 bound and the e11
  numerator as weights on photon pairs in 50 digits: a dual certificate
  that the bound holds for every yield table the gains admit.
* ``oracle_emitted_cutoff`` is the cutoff rule on the emitted light that
  the library's table-cutoff check once applied at every distance; the
  check on the arriving light must admit everything it admits.
* ``oracle_calibrate_pulse_pairs`` is the pulse-count calibration with
  an independent ``cutoff_distance`` search over the whole grid at every
  count it visits, repeated counts included; the library decides each
  step with one evaluation at a window edge and must reach the same
  result.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import replace
from fractions import Fraction
from functools import lru_cache
from typing import Dict, List, Tuple

import mpmath

from mdiqkd.bsm import contract
from mdiqkd.sources import _series
from mdiqkd.sweep import CalibrationResult, cutoff_distance

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


def oracle_lossless_pair(dark_count: float, i: int, j: int) -> tuple:
    """Y1 of the (i, j) pair in ``bsm.contract``'s channel order, from the
    module's A/B table.  A and B are exact, so (A - B) + p_d B replaces
    A - (1 - p_d) B without cancellation at small p_d."""
    silent = 1.0 - dark_count
    if i == j == 0:
        return (2.0 * dark_count * dark_count * silent * silent,) * 4
    two_h = 2.0 * 0.5 ** (i + j)
    two_ch = float(math.comb(i + j, i)) * two_h
    a = (two_h, two_ch, two_ch, two_h)
    b = (two_h if i == 0 or j == 0 else 0.0, two_ch, two_ch * two_h, two_h * two_ch)
    weight = silent * silent
    return tuple(weight * ((a_k - b_k) + dark_count * b_k) for a_k, b_k in zip(a, b))


def binomial_row(n: int, eta: float) -> tuple:
    """Photon-number statistics of n photons after loss eta:
    C(n, k) eta^k (1 - eta)^(n - k) for k = 0, ..., n."""
    return tuple(
        math.comb(n, k) * eta**k * (1.0 - eta) ** (n - k) for k in range(n + 1)
    )


def dense_tables(table) -> Dict[str, list]:
    """The four channel matrices of a ``YieldTable`` at its efficiency as
    nested lists: entry [i][j] contracts the binomial rows of i and j
    photons after the table's loss."""
    size = table.cutoff + 1
    eta = table.params.efficiency
    pairs = [
        [contract(table.params.dark_count, binomial_row(i, eta), binomial_row(j, eta))
         for j in range(size)]
        for i in range(size)
    ]
    names = ("correct_z", "error_z", "correct_x", "error_x")
    return {
        name: [[yields[k] for yields in row] for row in pairs]
        for k, name in enumerate(names)
    }


def oracle_distribution(spec, tail: float) -> List[mpmath.mpf]:
    """p(0), ..., p(N) of a ``SourceSpec`` in 50-digit arithmetic, for the
    first N >= 2 whose remaining mass is below ``tail`` times the mass
    from 2 to N photons.  A gain can be as small as its multi-photon part
    (far below the arriving mass at long distance, or where interference
    cancels the one-photon pairs), so the depth is set relative to it."""
    kind = spec.kind.value
    if kind == "vacuum":
        return [mpmath.mpf(1)]
    if kind == "sps":
        return [mpmath.mpf(0), mpmath.mpf(1)]
    with mpmath.workdps(50):
        mu = mpmath.mpf(spec.mu)
        a = mpmath.mpf(spec.odd_weight)
        if mu == 0:  # the limits mu^n / sinh(mu) -> [n == 1], mu^n / cosh(mu) -> [n == 0]
            return [mpmath.mpf(1)] if kind == "wcs" else [1 - a, a]
        # the remaining mass is summed term by term: 1 - sum would cancel
        terms = [_emitted_term(kind, mu, a, n) for n in range(64)]
        n_max = 2
        while mpmath.fsum(terms[n_max + 1:]) >= tail * mpmath.fsum(terms[2 : n_max + 1]):
            n_max += 1
            terms.append(_emitted_term(kind, mu, a, len(terms)))
        return terms[: n_max + 1]


def _emitted_term(kind: str, mu, a, n: int):
    """p(n) of a wcs, css or nonideal_css source of intensity mu > 0 and
    odd weight a, at the working precision."""
    power = mu**n / mpmath.factorial(n)
    if kind == "wcs":
        return mpmath.exp(-mu) * power
    if n % 2:
        return a * power / mpmath.sinh(mu)
    return (1 - a) * power / mpmath.cosh(mu)


def binomial_fold(probs, eta) -> List[mpmath.mpf]:
    """The distribution ``probs`` after loss ``eta``, in 50 digits."""
    with mpmath.workdps(50):
        e = mpmath.mpf(eta)
        return [
            mpmath.fsum(
                p * mpmath.binomial(n, k) * e**k * (1 - e) ** (n - k)
                for n, p in enumerate(probs)
                if n >= k
            )
            for k in range(len(probs))
        ]


def oracle_wcs_gains(mu_a: float, mu_b: float, eta: float, dark: float) -> Tuple:
    """(correct_z, error_z, correct_x, error_x) gains of two weak coherent
    sources, from the A/B table of ``mdiqkd.bsm`` summed in closed form.

    With x = eta mu_A, y = eta mu_B and n = i + j the Poisson weights sum
    to  sum 2^-n = e^-(x+y)/2,  sum C(n, i) 2^-n = e^-(x+y)/2 I0(sqrt(x y))
    and  sum C(n, i) 4^-n = e^-3(x+y)/4 I0(sqrt(x y) / 2);  the vacuum pair
    takes its own two-dark-count term.
    """
    with mpmath.workdps(50):
        e, pd = mpmath.mpf(eta), mpmath.mpf(dark)
        x, y = e * mpmath.mpf(mu_a), e * mpmath.mpf(mu_b)
        vacuum = mpmath.exp(-x - y)  # weight of the (0, 0) pair
        halves = mpmath.exp(-(x + y) / 2) - vacuum
        binomial_halves = (
            mpmath.exp(-(x + y) / 2) * mpmath.besseli(0, mpmath.sqrt(x * y)) - vacuum
        )
        binomial_quarters = (
            mpmath.exp(-3 * (x + y) / 4) * mpmath.besseli(0, mpmath.sqrt(x * y) / 2) - vacuum
        )
        # pairs with one side empty: sum over i of e^-y e^-x (x/2)^i / i!, both ways
        one_side = mpmath.exp(-y - x / 2) + mpmath.exp(-x - y / 2) - 2 * vacuum
        silent = (1 - pd) ** 2

        def channel(a_sum, b_sum):
            # Y1 = (1 - p_d)^2 (A - (1 - p_d) B) summed, plus the vacuum pair
            return silent * (a_sum - (1 - pd) * b_sum) + vacuum * 2 * pd**2 * silent

        return (
            channel(2 * halves, 2 * one_side),
            channel(2 * binomial_halves, 2 * binomial_halves),
            channel(2 * binomial_halves, 4 * binomial_quarters),
            channel(2 * halves, 4 * binomial_quarters),
        )


def oracle_css_y11(mu1: float, mu2: float, q_signal: float, q_decoy: float) -> float:
    """One-decoy yield bound of odd cat sources at intensities mu1 > mu2
    from their signal and decoy gains; negative where the bound is void.

        y11 >= [mu1^4 sinh^2(mu2) Q(mu2) - mu2^4 sinh^2(mu1) Q(mu1)]
               / [mu1^2 mu2^2 (mu1^2 - mu2^2)]
    """
    s1, s2 = math.sinh(mu1), math.sinh(mu2)
    numerator = mu1**4 * s2 * s2 * q_decoy - mu2**4 * s1 * s1 * q_signal
    return numerator / (mu1 * mu1 * mu2 * mu2 * (mu1 * mu1 - mu2 * mu2))


def decoy_certificate(spec_signal, spec_decoy, photons: int = 23) -> Tuple[list, list]:
    """The weights that the two-point y11 bound and the e11 numerator put
    on each photon pair (i, j), i, j <= ``photons``, in 50 digits.

    Both are fixed linear combinations of channel gains, sum_c l_c Q_c,
    and Q_c = sum_ij P_i^a P_j^b Y_ij for the channel's two sources a and
    b, so the weight on the pair (i, j) is sum_c l_c P_i^a P_j^b.  With
    g(x) = Q_xx - P0 Q_x0 - P0 Q_0x + P0^2 Q_00 and m the lowest emitted
    multi-photon number,

        y11 >= [P1s Pms g(d) - P1d Pmd g(s)] / [P1s P1d (P1d Pms - P1s Pmd)]

    and the e11 numerator is g(d) of the error-weighted X gains.  Weight
    1 on (1, 1) and at most 0 elsewhere prove the bound below Y11 for
    every yield table in [0, 1] that gives the observed gains; weights
    of at least 0 prove the numerator above P1d^2 EY11.  The
    distributions are written here from the intensities (wcs, css and
    nonideal_css of mu > 0), not read from the library.
    """
    with mpmath.workdps(50):

        def emitted(spec):
            mu, a = mpmath.mpf(spec.mu), mpmath.mpf(spec.odd_weight)
            return [_emitted_term(spec.kind.value, mu, a, n) for n in range(photons + 1)]

        s, d = emitted(spec_signal), emitted(spec_decoy)
        vacuum = [mpmath.mpf(1)] + [mpmath.mpf(0)] * photons
        m = 2 if s[2] > 0 else 3
        den = s[1] * d[1] * (d[1] * s[m] - s[1] * d[m])
        weight_d, weight_s = s[1] * s[m] / den, d[1] * d[m] / den

        def g(p, scale):
            """(coefficient, a, b) of each channel gain in scale * g(p)."""
            return [(scale, p, p), (-scale * p[0], p, vacuum), (-scale * p[0], vacuum, p),
                    (scale * p[0] ** 2, vacuum, vacuum)]

        def pair_weights(terms):
            return [[mpmath.fsum(c * a[i] * b[j] for c, a, b in terms)
                     for j in range(photons + 1)] for i in range(photons + 1)]

        return (pair_weights(g(d, weight_d) + g(s, -weight_s)), pair_weights(g(d, 1)))


def oracle_emitted_cutoff(spec, tail_tolerance: float) -> int:
    """The smallest N whose emitted mass above N is below ``tail_tolerance``,
    with the float terms of the closed-form series at eta = 1 summed
    smallest first.  Terms are taken until the bound on the rest is below
    the rounding of the tolerance."""
    terms, _ = _series(spec, 1.0, absolute=tail_tolerance * 2.0**-53)
    tails = list(itertools.accumulate(reversed(terms[1:]), initial=0.0))[::-1]
    return next(n for n, mass in enumerate(tails) if mass < tail_tolerance)


def oracle_calibrate_pulse_pairs(
    scenario, window, bounds, start, step_km, max_km
) -> CalibrationResult:
    lo_w, hi_w = window

    def cut(pulse_pairs: float) -> float:
        finite_key = replace(scenario.finite_key, pulse_pairs=pulse_pairs)
        result = cutoff_distance(
            replace(scenario, finite_key=finite_key), max_km=max_km, step_km=step_km
        )
        return -1.0 if result is None else result

    def result(pulse_pairs: float) -> CalibrationResult:
        c = cut(pulse_pairs)
        return CalibrationResult(
            pulse_pairs, None if c < 0.0 else c, lo_w <= c <= hi_w
        )

    start = min(max(start, bounds[0]), bounds[1])
    c0 = cut(start)
    if lo_w <= c0 <= hi_w:
        return result(start)

    if c0 < lo_w:
        lo_n, hi_n = start, start
        while cut(hi_n) < lo_w:
            if hi_n >= bounds[1]:
                return result(bounds[1])
            lo_n, hi_n = hi_n, min(hi_n * 10.0, bounds[1])
        predicate = lambda n: cut(n) >= lo_w
    else:
        lo_n, hi_n = start, start
        while cut(lo_n) > hi_w:
            if lo_n <= bounds[0]:
                return result(bounds[0])
            lo_n, hi_n = max(lo_n / 10.0, bounds[0]), lo_n
        predicate = lambda n: cut(n) > hi_w

    while hi_n / lo_n > 1.02:
        mid = math.sqrt(lo_n * hi_n)
        if predicate(mid):
            hi_n = mid
        else:
            lo_n = mid
    for candidate in (hi_n, lo_n):
        outcome = result(candidate)
        if outcome.in_window:
            return outcome
    return outcome
