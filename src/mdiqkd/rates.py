"""Gains, error rates and the secret-key-rate formula.

Gains are obtained by weighting the per-photon-pair yield tables with
the two sources' photon-number distributions after loss
(``sources.transmitted`` and ``YieldTable.contract``).
Misalignment enters only here: a fraction e_d of intrinsically correct
coincidences is recorded as an error and vice versa, so the
error-weighted gain of a channel is

    E Q = e_d Q_correct + (1 - e_d) Q_error.

A ``GainSet`` keeps Q and E Q per basis, all that the decoy bounds and
the key rate read.  The secret fraction follows the standard
decoy-state form

    R = Q11_Z (1 - H(e11_X)) - Q_Z f H(E_Z)

per pulse pair in the matched-basis channel.  ``key_rate`` returns it
unclamped; the pipelines report both it and its clamp at zero.
"""

from __future__ import annotations

import math

from .bsm import YieldTable
from .errors import DomainError, record
from .sources import SourceSpec, transmitted


class GainSet(record("GainSet", "total_z error_weighted_z total_x error_weighted_x")):
    """Per-pulse-pair gains of one intensity pair, both bases.

    ``total`` = correct + error coincidence gain Q; ``error_weighted`` is
    E Q with misalignment already mixed in.  ``YieldTable.contract``
    gives the intrinsic correct/error split.
    """

    __slots__ = ()

    def __new__(cls, total_z: float, error_weighted_z: float, total_x: float,
                error_weighted_x: float) -> GainSet:
        values = total_z, error_weighted_z, total_x, error_weighted_x
        # One chain checks all four; the loop only names the culprit.
        if not (0.0 <= total_z <= 1.0 >= error_weighted_z >= 0.0
                <= total_x <= 1.0 >= error_weighted_x >= 0.0):
            for name, value in zip(cls._fields, values):
                if not 0.0 <= value <= 1.0:
                    raise DomainError(f"gain {name}={value} outside [0, 1]")
        return tuple.__new__(cls, values)

    @property
    def qber_z(self) -> float:
        """Observed Z-basis error rate (0 when the gain vanishes)."""
        return self.error_weighted_z / self.total_z if self.total_z > 0.0 else 0.0

    @property
    def qber_x(self) -> float:
        return self.error_weighted_x / self.total_x if self.total_x > 0.0 else 0.0


def gains(
    spec_a: SourceSpec,
    spec_b: SourceSpec,
    table: YieldTable,
    misalignment: float,
) -> GainSet:
    """Contract two sources' photon-number statistics, after the table's
    loss, against a yield table.

    Each source's statistics come from ``transmitted`` at the table's
    efficiency and cutoff, which raises ``CutoffError`` when the cutoff
    leaves out too much of either.
    """
    if not 0.0 <= misalignment <= 1.0:
        raise DomainError(f"misalignment must lie in [0, 1], got {misalignment}")
    eta = table.params.efficiency
    a = transmitted(spec_a, eta, table.cutoff)[0]
    b = transmitted(spec_b, eta, table.cutoff)[0]
    correct_z, error_z, correct_x, error_x = table.contract(a, b)
    e_d = misalignment
    # total_z, error_weighted_z, total_x, error_weighted_x
    return GainSet(
        correct_z + error_z,
        e_d * correct_z + (1.0 - e_d) * error_z,
        correct_x + error_x,
        e_d * correct_x + (1.0 - e_d) * error_x,
    )


def binary_entropy(e: float) -> float:
    """Shannon entropy of a bit with bias ``e``, in bits.

    H(0) and H(1) are exactly 0; inputs outside [0, 1] are rejected.
    """
    if not 0.0 <= e <= 1.0:
        raise DomainError(f"entropy argument must lie in [0, 1], got {e}")
    if e == 0.0 or e == 1.0:
        return 0.0
    return -e * math.log2(e) - (1.0 - e) * math.log2(1.0 - e)


def key_rate(
    q11_z: float,
    e11_x: float,
    q_z: float,
    qber_z: float,
    ec_efficiency: float,
) -> float:
    """Secret bits per pulse pair in the matched Z channel, unclamped: a
    negative value says by how much the error-correction cost exceeds
    the privacy term.

    ``e11_x`` is the single-photon phase-error bound.  Values at or
    above 1/2 saturate the privacy term (H evaluated at 1/2), which
    drives the rate to zero or below; this keeps flagged over-unity
    error bounds well defined.  Every check fails on NaN.
    """
    for name, value in ("gain q11_z", q11_z), ("gain q_z", q_z), ("error rate qber_z", qber_z):
        if not 0.0 <= value <= 1.0:
            raise DomainError(f"{name} must lie in [0, 1], got {value}")
    if not e11_x >= 0.0:
        raise DomainError(f"phase-error bound e11_x must be >= 0, got {e11_x}")
    if not 1.0 <= ec_efficiency < math.inf:
        raise DomainError(f"ec_efficiency must be finite and >= 1, got {ec_efficiency}")
    privacy = 1.0 - binary_entropy(min(e11_x, 0.5))
    return q11_z * privacy - q_z * ec_efficiency * binary_entropy(qber_z)


class SinglePhotonQuantities(record("SinglePhotonQuantities", "y11_z y11_x e11_z e11_x")):
    """Exact (1, 1)-pair yields and error rates read off a yield table.

    ``e11_*`` is None when the corresponding yield vanishes: with no
    coincidences there is no error rate to define.
    """

    __slots__ = ()


def true_single_photon_quantities(
    table: YieldTable, misalignment: float
) -> SinglePhotonQuantities:
    """Ground-truth single-photon quantities for bound validation: the
    gains of two single-photon sources."""
    sps = SourceSpec.sps()
    g = gains(sps, sps, table, misalignment)
    return SinglePhotonQuantities(
        y11_z=g.total_z,
        y11_x=g.total_x,
        e11_z=g.qber_z if g.total_z > 0.0 else None,
        e11_x=g.qber_x if g.total_x > 0.0 else None,
    )


class KeyRatePoint(record(
    "KeyRatePoint",
    "distance_km source method mu_signal mu_decoy gains_signal "
    "y11_lower e11_upper q11_z rate rate_unclamped flags",
)):
    """One evaluated point of a rate-versus-distance sweep: ``source``
    and ``method`` are names, ``gains_signal`` a ``GainSet`` and
    ``flags`` a frozenset."""

    __slots__ = ()

    @property
    def q_z(self) -> float:
        return self.gains_signal.total_z

    @property
    def qber_z(self) -> float:
        return self.gains_signal.qber_z
