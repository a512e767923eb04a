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

One recurrence per family (``_series``) gives the statistics after
any loss eta (fiber and detectors) in closed form, without summing over
emitted photon numbers; eta = 1 gives the emitted statistics.  With
x = eta mu and r = (1 - eta) mu, Poisson(mu) becomes Poisson(x), the
odd cat p'(k) = x^k c_k / (k! sinh(mu)) with c_k = cosh(r) for odd k
and sinh(r) for even k, the even part the same over cosh(mu) with cosh
and sinh swapped, and a single photon arrives with probability eta.

``transmitted`` truncates the series after loss relative to the
multi-photon mass it keeps (``TAIL_TOLERANCE``), or at a yield table's
cutoff, and a second walk past the cutoff decides whether it leaves out
too much.  The cutoff is judged against the light that arrives, not the
light emitted: loss moves mass only downwards, so a source too bright
for the table at short distance can fit it further out.  No other
module applies loss to photon numbers or truncates them.
``SourceSpec.emitted_head`` is the emitted (P0, P1, Pm) the decoy
bounds read, computed once per distinct spec value: m = 2 where the
source emits an even-photon sector (``has_even_sector``), else 3.  A
distribution is a tuple of floats built with ``math``, so this module
needs no numpy.
"""

from __future__ import annotations

import enum
import functools
import math

from .errors import CutoffError, DomainError, record

# Terms beyond this photon number are never enumerated; intensities that
# need more are outside the regime this engine is built for.
_HARD_CAP = 512

# Mass a truncation may leave out: relative to the multi-photon mass
# kept in ``transmitted``, absolute at a table cutoff.
TAIL_TOLERANCE = 1e-15

# Relative widening of the transmitted tail bound, above its roundings
# (about two per photon number) for any cutoff up to _HARD_CAP.
_TAIL_SLACK = 1.0 + 1e-12

# Unit roundoff of a double: mass below this fraction of TAIL_TOLERANCE
# is below its rounding and cannot move a cutoff decision.
_ROUNDING = 2.0**-53


class SourceKind(enum.Enum):
    CSS = "css"
    NONIDEAL_CSS = "nonideal_css"
    WCS = "wcs"
    SPS = "sps"
    VACUUM = "vacuum"

    # Members are singletons, so the identity hash serves as well as
    # Enum's name hash and skips a Python-level call; every memo key
    # hashes a SourceSpec.
    __hash__ = object.__hash__


class SourceSpec(record("SourceSpec", "kind mu odd_weight")):
    """Declarative description of one pulse source.

    ``mu`` is the intensity setting, fixed at 0 for sps and vacuum, and
    ``odd_weight`` the odd-photon-sector weight: the fidelity-squared
    parameter a of a non-ideal cat, fixed at 1 for every other kind.
    """

    __slots__ = ()

    def __new__(cls, kind: SourceKind, mu: float = 0.0, odd_weight: float = 1.0) -> SourceSpec:
        if not math.isfinite(mu) or mu < 0.0:
            raise DomainError(f"intensity must be finite and >= 0, got {mu}")
        if kind is SourceKind.NONIDEAL_CSS:
            if not 0.0 < odd_weight <= 1.0:
                raise DomainError(f"odd_weight must lie in (0, 1], got {odd_weight}")
        elif odd_weight != 1.0:
            raise DomainError(f"a {kind.value} source has odd_weight fixed at 1")
        if mu != 0.0 and kind in (SourceKind.SPS, SourceKind.VACUUM):
            raise DomainError(f"a {kind.value} source has mu fixed at 0, got {mu}")
        return tuple.__new__(cls, (kind, mu, odd_weight))

    @property
    def has_even_sector(self) -> bool:
        """Whether even photon numbers are emitted: by a Poisson source, by
        a cat of odd weight below 1.  Read off the parameters: P2 underflows."""
        return self.kind in (SourceKind.WCS, SourceKind.VACUUM) or self.odd_weight < 1.0

    # Keyed by value: every evaluation reads its signal's and its decoy's.
    @property
    @functools.lru_cache(maxsize=1024)
    def emitted_head(self) -> tuple:
        """(P0, P1, Pm) of the emitted statistics in closed form, the first
        m + 1 terms of the series at eta = 1: m = 2 with an even sector, else 3."""
        m = 2 if self.has_even_sector else 3
        head, _ = _series(self, 1.0, m + 1)
        return head[0], head[1], head[m]

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


def _sinhc(z: float) -> float:
    """sinh(z) / z, 1 at z = 0."""
    return math.sinh(z) / z if z else 1.0


def _series(
    spec: SourceSpec, eta: float, count: int | None = None,
    relative: float = -math.inf, absolute: float = 0.0,
) -> tuple[list[float], float]:
    """The first terms p'(0), p'(1), ... of ``spec`` after loss ``eta``
    (at eta = 1 the emitted statistics), walked in one frame, and a bound
    on the mass above the last, sound wherever that mass is a normal
    float.  The walk ends after ``count`` terms, or at the first term
    whose bound is below ``absolute`` or at most ``relative`` times the
    multi-photon mass kept (k >= 2).  Raises ``DomainError`` when it
    would run past ``_HARD_CAP``, which only a walk without ``count`` does."""
    kind = spec.kind
    # A single photon is the mu -> 0 limit of the cat, the vacuum that of
    # the weak coherent state; their specs fix mu at 0.
    mu = spec.mu
    x = eta * mu
    # Every p'(k) is built from g_k = x^k / k!.  The odd sector is
    # a cosh(r) eta g_(k-1) / (k sinhc(mu)) for odd k and, as sinh(r) =
    # (1 - eta) mu sinhc(r), a (1 - eta) g_k sinhc(r) / sinhc(mu) for even
    # k, so a tiny mu does not underflow x before 1 / sinh(mu) scales it
    # back up.  Each sector is at most its cosh(r) form for every k, and
    # those forms fall by x / (k + 1) per step, so the tail above N is at
    # most the next one over 1 - x / (N + 2).
    if mu >= _HARD_CAP:  # never converges; cosh(mu) overflows above ~710
        raise _no_convergence(spec)
    if kind in (SourceKind.WCS, SourceKind.VACUUM):  # e^-x g_k at every k
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
    # The products and sums every term repeats, rounded as they were.
    odd_eta, even = odd_cosh * eta, odd_sinh + even_cosh
    terms = []
    multi = 0.0
    g_prev, g = 0.0, 1.0  # g_(k-1), g_k
    for k in range(_HARD_CAP + 1 if count is None else count):
        p = odd_eta * g_prev / k + even_sinh * g if k % 2 else even * g
        terms.append(p)
        if k > 1:
            multi += p
        g_prev, g = g, g * x / (k + 1)
        bound = odd_eta * g_prev / (k + 1) + even_cosh * g
        tail = _TAIL_SLACK * bound / (1.0 - x / (k + 2)) if x < k + 2 else math.inf
        if tail < absolute or tail <= relative * multi:
            return terms, tail
    if count is None:
        raise _no_convergence(spec)
    return terms, tail


def _no_convergence(spec: SourceSpec) -> DomainError:
    return DomainError(
        f"series for mu={spec.mu} does not converge within {_HARD_CAP} photons"
    )


def transmitted(
    spec: SourceSpec, eta: float, cutoff: int
) -> tuple[tuple[float, ...], float]:
    """Photon-number statistics of ``spec`` after loss ``eta``, up to at
    most ``cutoff`` photons, and an upper bound on the mass above the
    last entry kept (sound wherever that mass is a normal float).

    The series stops at the smallest N whose tail bound is at most
    ``TAIL_TOLERANCE`` times the multi-photon mass kept (k >= 2), or at
    ``cutoff``.  A gain can be as small as x^2 (long distance) or mu^2
    (two-photon interference cancels the (1, 1) term) while a dropped
    three-photon term enters some yields at order one, so neither a tail
    relative to the arriving mass x nor an absolute one would be small
    against it.  Where the series runs into ``cutoff`` with its tail bound
    not yet below the rounding of ``TAIL_TOLERANCE``, a second walk (the
    same terms, bit for bit) runs until the bound on the mass beyond its
    last term is, and sums its terms past the cutoff, smallest first, so
    every term that could carry the sum across the tolerance counts.
    Raises ``CutoffError`` when that mass is at least ``TAIL_TOLERANCE``,
    and ``DomainError`` when ``eta`` is not in [0, 1].
    """
    if not 0.0 <= eta <= 1.0:
        raise DomainError(f"efficiency eta must lie in [0, 1], got {eta}")
    probs, tail = _series(spec, eta, cutoff + 1, TAIL_TOLERANCE)
    floor = TAIL_TOLERANCE * _ROUNDING
    if len(probs) > cutoff and tail >= floor:
        above, _ = _series(spec, eta, absolute=floor)
        mass = sum(reversed(above[cutoff + 1:]))
        if mass >= TAIL_TOLERANCE:
            raise CutoffError(
                f"{spec.kind.value} source (mu={spec.mu}) keeps mass {mass:.3g} "
                f"above the yield-table cutoff {cutoff} at efficiency {eta:.6g}"
            )
    return tuple(probs), tail
