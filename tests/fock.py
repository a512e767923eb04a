"""Fock-state simulation of the relay optics: the test oracle.

Two pulses meet on a 50:50 beam splitter; each output arm passes a
polarizing beam splitter feeding two threshold detectors, so there are
four detector modes (1H, 1V, 2H, 2V).  For number states entering the
two ports the beam splitter acts by operator substitution

    a1 -> (c1 + c2) / sqrt(2),    a2 -> (c1 - c2) / sqrt(2)

per polarization mode.  Amplitudes landing on the same output monomial
are summed coherently before squaring; that coherent sum is what makes
two-photon Hong-Ou-Mandel dips exact zeros.

The expansion is organized so that float64 arithmetic is exact or
cancellation-free on every path:

* equal polarizations reduce to a single-mode interference kernel whose
  terms are products of binomial coefficients (exact integers below
  2**53), followed by per-arm binomial splits;
* H/V pairs factor into two independent arm splits;
* diagonal/antidiagonal pairs use normalized per-arm rotation rows
  (every summand has modulus < 1, so the coherent sum loses no digits);
* mixed-basis pairs expand the diagonal pulse into H/V sectors, which
  cannot interfere because the sector photon totals are measured.

``bell_yield`` applies threshold detectors to one output.  The tests
check the closed forms of ``mdiqkd.bsm`` against it; the package never
imports it, and only it needs numpy.
"""

from __future__ import annotations

import enum
import functools
import math
from dataclasses import dataclass

import numpy as np

from mdiqkd.bsm import DetectorParams
from mdiqkd.errors import CutoffError, DomainError

# Beyond a 40-photon total the exact-integer guarantees of the
# simulation (products of binomials below 2**53) no longer hold.
MAX_TOTAL_PHOTONS = 40


class Polarization(enum.Enum):
    H = "H"
    V = "V"
    PLUS = "plus"       # (H + V) / sqrt(2)
    MINUS = "minus"     # (H - V) / sqrt(2)


class BellOutcome(enum.Enum):
    PSI_PLUS = "psi_plus"    # same-arm H and V clicks, other arm silent
    PSI_MINUS = "psi_minus"  # cross-arm H and V clicks, others silent


_FACT = [float(math.factorial(n)) for n in range(MAX_TOTAL_PHOTONS + 1)]

_DIAGONAL = (Polarization.PLUS, Polarization.MINUS)
_RECTILINEAR = (Polarization.H, Polarization.V)


@dataclass(frozen=True)
class OutputDistribution:
    """Joint photon-number distribution over the four detector modes.

    ``configs`` is an (n, 4) int array of (n1h, n1v, n2h, n2v)
    occupations, ``probabilities`` the matching probabilities.  Rows are
    lexicographically sorted, so equal inputs give identical layouts.
    """

    input_photons: tuple[int, int]
    polarizations: tuple[Polarization, Polarization]
    configs: np.ndarray
    probabilities: np.ndarray

    def total(self) -> float:
        """Sum of retained probabilities (1 up to rounding)."""
        return float(self.probabilities.sum())


# ---------------------------------------------------------------------------
# small exact building blocks
# ---------------------------------------------------------------------------


@functools.lru_cache(maxsize=None)
def _binom_row(n: int) -> np.ndarray:
    """[C(n, 0), ..., C(n, n)] as exact float64 values."""
    row = np.array([float(math.comb(n, k)) for k in range(n + 1)])
    row.setflags(write=False)
    return row


@functools.lru_cache(maxsize=None)
def _split_probs(n: int) -> np.ndarray:
    """Binomial(n, 1/2) weights: one pulse spreading over two modes."""
    row = _binom_row(n) * 0.5**n
    row.setflags(write=False)
    return row


@functools.lru_cache(maxsize=None)
def _pol_row(n: int, pol: Polarization) -> np.ndarray:
    """Integer H/V expansion coefficients of n photons of ``pol``.

    Entry r is the coefficient of (cH+)^r (cV+)^(n-r) in the raw binomial
    expansion, without the 2**(-n/2) normalization of diagonal states.
    """
    row = _binom_row(n).copy()
    if pol is Polarization.H:
        row = np.zeros(n + 1)
        row[n] = 1.0
    elif pol is Polarization.V:
        row = np.zeros(n + 1)
        row[0] = 1.0
    elif pol is Polarization.MINUS:
        signs = np.array([(-1.0) ** (n - r) for r in range(n + 1)])
        row = row * signs
    row.setflags(write=False)
    return row


@functools.lru_cache(maxsize=None)
def _interference_kernel(na: int, nb: int) -> np.ndarray:
    """Arm-count distribution for equal-polarization pulses.

    ``na`` photons enter port 1 and ``nb`` port 2 in the same
    polarization mode.  Returns P(p) for p photons in output arm 1,
    p = 0..na+nb.  Every product of binomials is an exact integer in
    float64, so true interference zeros come out exactly 0.0.
    """
    total = na + nb
    row_a = _binom_row(na)
    signed_b = _binom_row(nb) * np.array(
        [(-1.0) ** (nb - k) for k in range(nb + 1)]
    )
    shape = _FACT[: total + 1]
    weight = np.array(shape) * np.array(shape[::-1]) / (
        _FACT[na] * _FACT[nb] * 2.0**total
    )
    amp = np.convolve(row_a, signed_b)
    probs = amp * amp * weight
    probs.setflags(write=False)
    return probs


@functools.lru_cache(maxsize=None)
def _rotation_row(a: int, b: int, pol_a: Polarization, pol_b: Polarization) -> np.ndarray:
    """Normalized H/V amplitudes of ``a`` photons of pol_a plus ``b`` of pol_b
    sharing one arm.  Entry nh is the <nh, a+b-nh| amplitude."""
    conv = np.convolve(_pol_row(a, pol_a), _pol_row(b, pol_b))
    half_powers = a * (pol_a in _DIAGONAL) + b * (pol_b in _DIAGONAL)
    nh = np.arange(a + b + 1)
    norm = np.sqrt(
        np.array([_FACT[h] for h in nh]) * np.array([_FACT[a + b - h] for h in nh])
        / (_FACT[a] * _FACT[b])
    )
    row = conv * norm * 2.0 ** (-0.5 * half_powers)
    row.setflags(write=False)
    return row


# ---------------------------------------------------------------------------
# propagation
# ---------------------------------------------------------------------------


def _sorted_distribution(
    i: int,
    pol_a: Polarization,
    j: int,
    pol_b: Polarization,
    configs: np.ndarray,
    probs: np.ndarray,
) -> OutputDistribution:
    order = np.lexsort(configs.T[::-1])
    configs = np.ascontiguousarray(configs[order])
    probs = np.ascontiguousarray(probs[order])
    configs.setflags(write=False)
    probs.setflags(write=False)
    return OutputDistribution(
        input_photons=(i, j),
        polarizations=(pol_a, pol_b),
        configs=configs,
        probabilities=probs,
    )


def _configs_parallel(i: int, j: int, pol: Polarization):
    """Both pulses share one polarization: interfere, then split per arm."""
    total = i + j
    kernel = _interference_kernel(i, j)
    configs, probs = [], []
    for p in range(total + 1):
        q = total - p
        if pol in _RECTILINEAR:
            split1 = np.ones(1)
            split2 = np.ones(1)
            nh1 = np.array([p if pol is Polarization.H else 0])
            nh2 = np.array([q if pol is Polarization.H else 0])
        else:
            split1, split2 = _split_probs(p), _split_probs(q)
            nh1, nh2 = np.arange(p + 1), np.arange(q + 1)
        block = kernel[p] * np.outer(split1, split2)
        g1, g2 = np.meshgrid(nh1, nh2, indexing="ij")
        configs.append(
            np.column_stack(
                [
                    g1.ravel(),
                    (p - g1).ravel(),
                    g2.ravel(),
                    (q - g2).ravel(),
                ]
            )
        )
        probs.append(block.ravel())
    return np.concatenate(configs), np.concatenate(probs)


def _configs_rectilinear_orthogonal(i: int, pol_a: Polarization, j: int):
    """(H, V) or (V, H): two independent binomial arm splits."""
    split_a, split_b = _split_probs(i), _split_probs(j)
    ka, kb = np.meshgrid(np.arange(i + 1), np.arange(j + 1), indexing="ij")
    probs = np.outer(split_a, split_b).ravel()
    ka, kb = ka.ravel(), kb.ravel()
    if pol_a is Polarization.H:
        configs = np.column_stack([ka, kb, i - ka, j - kb])
    else:
        configs = np.column_stack([kb, ka, j - kb, i - ka])
    return configs, probs


def _configs_diagonal_orthogonal(
    i: int, pol_a: Polarization, j: int, pol_b: Polarization
):
    """(plus, minus) or (minus, plus): full four-mode coherent assembly.

    In the diagonal basis the two pulses occupy orthogonal modes and
    simply split over the arms; rotating each arm back to H/V couples
    the splittings coherently.  All summands are normalized amplitudes
    (modulus <= 1), so the float64 sum is benign.
    """
    total = i + j
    amp_a = np.sqrt(_binom_row(i) / 2.0**i)
    amp_b = np.sqrt(_binom_row(j) / 2.0**j) * np.array(
        [(-1.0) ** (j - k) for k in range(j + 1)]
    )
    configs, probs = [], []
    for n1 in range(total + 1):
        n2 = total - n1
        p_lo, p_hi = max(0, n1 - j), min(i, n1)
        if p_lo > p_hi:
            continue
        p_vals = range(p_lo, p_hi + 1)
        weights = np.array([amp_a[p] * amp_b[n1 - p] for p in p_vals])
        rows1 = np.vstack([_rotation_row(p, n1 - p, pol_a, pol_b) for p in p_vals])
        rows2 = np.vstack(
            [_rotation_row(i - p, j - n1 + p, pol_a, pol_b) for p in p_vals]
        )
        amp = (rows1 * weights[:, None]).T @ rows2
        block = amp * amp
        g1, g2 = np.meshgrid(np.arange(n1 + 1), np.arange(n2 + 1), indexing="ij")
        configs.append(
            np.column_stack(
                [g1.ravel(), (n1 - g1).ravel(), g2.ravel(), (n2 - g2).ravel()]
            )
        )
        probs.append(block.ravel())
    return np.concatenate(configs), np.concatenate(probs)


def _configs_mixed(i: int, pol_a: Polarization, j: int, pol_b: Polarization):
    """One rectilinear and one diagonal pulse.

    The diagonal pulse is expanded into its H and V sectors.  Sector
    photon totals are observable in the detector counts, so the sectors
    add incoherently; within the sector shared with the rectilinear
    pulse the usual two-port interference kernel applies.
    """
    if pol_a in _RECTILINEAR:
        n_rect, pol_rect, rect_port = i, pol_a, 0
        n_diag = j
    else:
        n_rect, pol_rect, rect_port = j, pol_b, 1
        n_diag = i
    sector_weights = _split_probs(n_diag)

    configs, probs = [], []
    for t in range(n_diag + 1):
        # t diagonal photons fall into the sector of the rectilinear pulse.
        if rect_port == 0:
            kernel = _interference_kernel(n_rect, t)
        else:
            kernel = _interference_kernel(t, n_rect)
        other = _split_probs(n_diag - t)
        n_int = n_rect + t
        ki, ko = np.meshgrid(np.arange(n_int + 1), np.arange(n_diag - t + 1), indexing="ij")
        block = sector_weights[t] * np.outer(kernel, other)
        ki, ko = ki.ravel(), ko.ravel()
        if pol_rect is Polarization.H:
            block_configs = np.column_stack([ki, ko, n_int - ki, n_diag - t - ko])
        else:
            block_configs = np.column_stack([ko, ki, n_diag - t - ko, n_int - ki])
        configs.append(block_configs)
        probs.append(block.ravel())
    return np.concatenate(configs), np.concatenate(probs)


@functools.lru_cache(maxsize=None)
def propagate(
    i: int, pol_a: Polarization, j: int, pol_b: Polarization
) -> OutputDistribution:
    """Send |i> at ``pol_a`` and |j> at ``pol_b`` through the relay optics.

    Returns the exact joint photon-number distribution over the four
    detector modes before any detector imperfection is applied.
    """
    if i < 0 or j < 0:
        raise DomainError(f"photon numbers must be >= 0, got ({i}, {j})")
    if i + j > MAX_TOTAL_PHOTONS:
        raise CutoffError(
            f"total photon number {i + j} exceeds the precision budget "
            f"({MAX_TOTAL_PHOTONS})"
        )
    if not isinstance(pol_a, Polarization) or not isinstance(pol_b, Polarization):
        raise DomainError("polarizations must be Polarization members")

    if pol_a is pol_b:
        configs, probs = _configs_parallel(i, j, pol_a)
    elif {pol_a, pol_b} == set(_RECTILINEAR):
        configs, probs = _configs_rectilinear_orthogonal(i, pol_a, j)
    elif {pol_a, pol_b} == set(_DIAGONAL):
        configs, probs = _configs_diagonal_orthogonal(i, pol_a, j, pol_b)
    else:
        configs, probs = _configs_mixed(i, pol_a, j, pol_b)
    return _sorted_distribution(i, pol_a, j, pol_b, configs, probs)


# ---------------------------------------------------------------------------
# detectors
# ---------------------------------------------------------------------------


def _one_minus_loss_power(n: np.ndarray, eta: float) -> np.ndarray:
    """1 - (1 - eta)**n, exact at n = 0 and stable for small eta*n."""
    if eta >= 1.0:
        return (n > 0).astype(float)
    return -np.expm1(n * math.log1p(-eta))


def click_probability(n: int, params: DetectorParams) -> float:
    """Probability that a threshold detector fires on n incident photons.

    Equals 1 - (1 - p_d) (1 - eta)^n: the detector stays silent only if
    every photon is lost and no dark count occurs.
    """
    if n < 0:
        raise DomainError(f"photon number must be >= 0, got {n}")
    survive = _one_minus_loss_power(np.array([n]), params.efficiency)[0]
    return params.dark_count + (1.0 - params.dark_count) * float(survive)


def bell_yield(
    dist: OutputDistribution, outcome: BellOutcome, params: DetectorParams
) -> float:
    """Probability of announcing ``outcome`` given the ideal-optics output.

    psi_plus requires H and V clicks in one arm with the other arm
    silent; psi_minus requires an H click in one arm and a V click in
    the other with the remaining detectors silent.
    """
    pd, q = params.dark_count, 1.0 - params.dark_count
    cols = dist.configs.T
    d1h, d1v, d2h, d2v = (
        pd + q * _one_minus_loss_power(c, params.efficiency) for c in cols
    )
    # Silent directly as (1 - p_d)(1 - eta)^n: 1 - P(fire) cancels when
    # eta is near 1.
    s1h, s1v, s2h, s2v = (q * (1.0 - params.efficiency) ** c for c in cols)
    if outcome is BellOutcome.PSI_PLUS:
        pattern = d1h * d1v * s2h * s2v + d2h * d2v * s1h * s1v
    elif outcome is BellOutcome.PSI_MINUS:
        pattern = d1h * d2v * s1v * s2h + d1v * d2h * s1h * s2v
    else:
        raise DomainError(f"unknown Bell outcome {outcome}")
    return float(dist.probabilities @ pattern)
