"""Photon-number statistics of the pulse sources.

Every source is reduced to its phase-randomized photon-number
distribution p(n).  Supported families:

* ``css`` -- coherent-state superposition (odd cat).  Only odd photon
  numbers carry weight: p(2i+1) = mu^(2i+1) / ((2i+1)! sinh(mu)).
* ``nonideal_css`` -- cat state mixed with its even counterpart.  The
  odd part keeps weight ``odd_weight`` (called ``a`` in formulas), the
  even part gets 1 - a with cosh normalization.
* ``wcs`` -- weak coherent state, Poissonian p(n) = e^-mu mu^n / n!.
* ``sps`` -- ideal single-photon source, p(1) = 1.
* ``vacuum`` -- p(0) = 1.

Distributions are truncated at the smallest N whose analytic tail mass
falls below a tolerance; the tail is reported, never folded back into
the retained probabilities.  A distribution is a tuple of floats, built
with ``math`` from the log-series, so this module needs no numpy.

Loss eta (fiber and detectors) keeps every family in closed form, which
``transmitted`` evaluates without summing over emitted photon numbers.
With x = eta mu and r = (1 - eta) mu, Poisson(mu) becomes Poisson(x),
the odd cat p'(k) = x^k c_k / (k! sinh(mu)) with c_k = cosh(r) for odd k
and sinh(r) for even k, the even part the same over cosh(mu) with cosh
and sinh swapped, and a single photon arrives with probability eta.
"""

from __future__ import annotations

import enum
import functools
import math
from dataclasses import dataclass

from .errors import DomainError

# Terms beyond this photon number are never enumerated; intensities that
# need more are outside the regime this engine is built for.
_HARD_CAP = 512

# Relative widening of the transmitted tail bound, above its roundings
# (about two per photon number) for any cutoff up to _HARD_CAP.
_TAIL_SLACK = 1.0 + 1e-12


class SourceKind(enum.Enum):
    CSS = "css"
    NONIDEAL_CSS = "nonideal_css"
    WCS = "wcs"
    SPS = "sps"
    VACUUM = "vacuum"


@dataclass(frozen=True)
class SourceSpec:
    """Declarative description of one pulse source.

    ``mu`` is the intensity setting (ignored for sps/vacuum) and
    ``odd_weight`` the odd-photon-sector weight: 1 for an ideal cat
    state, the fidelity-squared parameter a for a non-ideal one.
    """

    kind: SourceKind
    mu: float = 0.0
    odd_weight: float = 1.0

    def __post_init__(self) -> None:
        if not math.isfinite(self.mu) or self.mu < 0.0:
            raise DomainError(f"intensity must be finite and >= 0, got {self.mu}")
        if self.kind is SourceKind.CSS and self.odd_weight != 1.0:
            raise DomainError("an ideal cat source has odd_weight fixed at 1")
        if self.kind is SourceKind.NONIDEAL_CSS:
            if not 0.0 < self.odd_weight <= 1.0:
                raise DomainError(
                    f"odd_weight must lie in (0, 1], got {self.odd_weight}"
                )

    @classmethod
    def css(cls, mu: float) -> "SourceSpec":
        return cls(SourceKind.CSS, mu)

    @classmethod
    def nonideal_css(cls, mu: float, odd_weight: float) -> "SourceSpec":
        return cls(SourceKind.NONIDEAL_CSS, mu, odd_weight)

    @classmethod
    def wcs(cls, mu: float) -> "SourceSpec":
        return cls(SourceKind.WCS, mu)

    @classmethod
    def sps(cls) -> "SourceSpec":
        return cls(SourceKind.SPS)

    @classmethod
    def vacuum(cls) -> "SourceSpec":
        return cls(SourceKind.VACUUM)


@dataclass(frozen=True)
class PhotonDistribution:
    """Truncated photon-number distribution of one source.

    ``probabilities[n]`` is the analytic p(n); entries are not
    renormalized after truncation.  ``tail_mass`` is the analytic mass
    above the cutoff, so sum(probabilities) + tail_mass == 1 up to
    floating-point error.  ``tail_tolerance`` is the bound the cutoff
    was chosen for; ``transmitted`` truncates with it too.
    """

    spec: SourceSpec
    probabilities: tuple[float, ...]
    tail_mass: float
    tail_tolerance: float

    @property
    def cutoff(self) -> int:
        """Largest photon number retained (N_max)."""
        return len(self.probabilities) - 1

    def prob(self, n: int) -> float:
        """p(n), zero above the cutoff."""
        if n < 0:
            raise DomainError(f"photon number must be >= 0, got {n}")
        if n > self.cutoff:
            return 0.0
        return self.probabilities[n]

    def mean(self) -> float:
        """Mean photon number of the retained part."""
        return sum(n * p for n, p in enumerate(self.probabilities))


def _terms(spec: SourceSpec) -> list[float]:
    """p(n) for n = 0.._HARD_CAP from log p(n), 0 where the sector is empty."""
    mu = spec.mu
    log_mu = math.log(mu)
    base = [n * log_mu - math.lgamma(n + 1.0) for n in range(_HARD_CAP + 1)]
    if spec.kind is SourceKind.WCS:
        logs = [b - mu for b in base]
    elif spec.kind in (SourceKind.CSS, SourceKind.NONIDEAL_CSS):
        a = spec.odd_weight  # 1 for an ideal cat: no even sector
        log_odd = math.log(a)
        log_even = math.log1p(-a) if a < 1.0 else -math.inf
        try:
            log_sinh, log_cosh = math.log(math.sinh(mu)), math.log(math.cosh(mu))
        except OverflowError:  # mu > ~710: no convergence within _HARD_CAP
            log_sinh = log_cosh = mu - math.log(2.0)  # sinh = cosh = e^mu / 2
        logs = [
            (b + log_odd) - log_sinh if n % 2 else (b + log_even) - log_cosh
            for n, b in enumerate(base)
        ]
    else:  # pragma: no cover - sps/vacuum never reach here
        raise DomainError(f"no series form for {spec.kind}")
    return [math.exp(x) for x in logs]


def build_distribution(
    spec: SourceSpec, tail_tolerance: float = 1e-15
) -> PhotonDistribution:
    """Truncate the photon-number series of ``spec``.

    The cutoff N_max is the smallest N whose tail mass (sum of the
    analytic terms above N) is strictly below ``tail_tolerance``.
    """
    if not 0.0 < tail_tolerance <= 1e-6:
        raise DomainError(
            f"tail tolerance must lie in (0, 1e-6], got {tail_tolerance}"
        )

    # Degenerate and zero-intensity limits are analytic, not numeric.
    tail = 0.0
    if spec.kind is SourceKind.VACUUM:
        probs = (1.0,)
    elif spec.kind is SourceKind.SPS:
        probs = (0.0, 1.0)
    elif spec.mu == 0.0:
        if spec.kind is SourceKind.WCS:
            probs = (1.0,)
        elif spec.kind is SourceKind.CSS:
            # mu/sinh(mu) -> 1: all mass at a single photon.
            probs = (0.0, 1.0)
        else:
            a = spec.odd_weight
            probs = (1.0 - a, a)
    else:
        terms = _terms(spec)
        # Suffix sums accumulate small terms first, so the reported tail
        # is the analytic remainder rather than a cancellation residue.
        tails = [0.0] * len(terms)  # tails[N] = mass above N
        for n in range(len(terms) - 1, 0, -1):
            tails[n - 1] = tails[n] + terms[n]
        if tails[0] + terms[0] < 1.0 - 1e-9:
            raise DomainError(
                f"series for mu={spec.mu} does not converge within "
                f"{_HARD_CAP} photons"
            )
        n_max = next(n for n, mass in enumerate(tails) if mass < tail_tolerance)
        probs = tuple(terms[: n_max + 1])
        tail = tails[n_max]

    return PhotonDistribution(spec, probs, tail, tail_tolerance)


def _sinhc(z: float) -> float:
    """sinh(z) / z, 1 at z = 0."""
    return math.sinh(z) / z if z else 1.0


# Each gain reads two of these, and a distance's decoy channels share
# a handful of sources, so most calls repeat one.
@functools.lru_cache(maxsize=1024)
def transmitted(
    spec: SourceSpec, eta: float, tail_tolerance: float, cutoff: int
) -> tuple[tuple[float, ...], float]:
    """Photon-number statistics of ``spec`` after loss ``eta``, up to at
    most ``cutoff`` photons, and an upper bound on the mass above the
    last entry kept (sound wherever that mass is a normal float).

    The series stops at the smallest N whose tail bound is at most
    ``tail_tolerance`` times the multi-photon mass kept (k >= 2), or at
    ``cutoff``.  A gain can be as small as x^2 (long distance) or mu^2
    (two-photon interference cancels the (1, 1) term) while a dropped
    three-photon term enters some yields at order one, so neither a tail
    relative to the arriving mass x nor the emitted cutoff's absolute
    one would be small against it.  Loss moves mass only downwards, so
    at a cap at least the emitted cutoff the tail is at most the emitted
    tail.
    """
    if spec.kind is SourceKind.VACUUM:
        return (1.0,), 0.0
    if spec.kind is SourceKind.SPS:
        return (1.0 - eta, eta), 0.0
    mu = spec.mu
    x = eta * mu
    # Every p'(k) is built from g_k = x^k / k!.  The odd sector is
    # a cosh(r) eta g_(k-1) / (k sinhc(mu)) for odd k and, as sinh(r) =
    # (1 - eta) mu sinhc(r), a (1 - eta) g_k sinhc(r) / sinhc(mu) for even
    # k, so a tiny mu does not underflow x before 1 / sinh(mu) scales it
    # back up.  Each sector is at most its cosh(r) form for every k, and
    # those forms fall by x / (k + 1) per step, so the tail above N is at
    # most the next one over 1 - x / (N + 2).
    if spec.kind is SourceKind.WCS:  # e^-x g_k at every k
        odd_cosh = odd_sinh = 0.0
        even_cosh = even_sinh = math.exp(-x)
    else:
        a = spec.odd_weight
        r = (1.0 - eta) * mu
        s = _sinhc(mu)
        odd_cosh = a * math.cosh(r) / s  # odd k, times eta g_(k-1) / k
        odd_sinh = a * (1.0 - eta) * _sinhc(r) / s  # even k, times g_k
        even_cosh = (1.0 - a) * math.cosh(r) / math.cosh(mu)
        even_sinh = (1.0 - a) * math.sinh(r) / math.cosh(mu)
    probs = []
    multi = 0.0
    g_prev, g = 0.0, 1.0  # g_(k-1), g_k
    for k in range(cutoff + 1):
        if k % 2:
            p = odd_cosh * eta * g_prev / k + even_sinh * g
        else:
            p = (odd_sinh + even_cosh) * g
        probs.append(p)
        if k > 1:
            multi += p
        g_prev, g = g, g * x / (k + 1)
        bound = odd_cosh * eta * g_prev / (k + 1) + even_cosh * g
        tail = _TAIL_SLACK * bound / (1.0 - x / (k + 2)) if x < k + 2 else math.inf
        if tail <= tail_tolerance * multi:
            break
    return tuple(probs), tail
