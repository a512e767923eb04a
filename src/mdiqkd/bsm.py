"""Bell-state-measurement yields of the relay, in closed form.

The relay optics and detectors are described in ``tests/fock.py``, the
exact Fock-state simulation these forms are checked against.

Yields are factored by loss.  A detector of efficiency eta is loss eta
in front of an ideal threshold detector with the same dark count, and
uniform loss commutes with the passive relay optics, so the loss of
fiber and detectors together acts on the photon statistics before the
relay.  A gain is a^T Y1 b, where a and b are the two sources'
photon-number distributions after loss (``sources.transmitted``, in
closed form) and Y1 is the table at unit efficiency; the lossy table
itself is never built.  Every term is a product of non-negative
numbers, so float64 loses no digits to cancellation.  Y1 is built once
per (p_d, block shape), up to the lengths of the arriving distributions.

Y1 has a closed form: at unit efficiency a detector fires on any photon
and with probability p_d on vacuum, so psi_plus depends only on which
modes are occupied.  For n = i + j > 0 photons, h = 2^-n and c = C(n, i),
Y1 = (1 - p_d)^2 (A - (1 - p_d) B).  A is the probability that all n
photons leave through one arm (either arm), B the part of A where they
also share one polarization mode.  The vacuum pair needs two dark counts
in one arm: Y1 = 2 p_d^2 (1 - p_d)^2.

    correct_z (H, V)   A = 2h    B = 2h if i = 0 or j = 0, else 0
    error_z   (H, H)   A = 2ch   B = A   (Hong-Ou-Mandel bunching)
    correct_x (+, +)   A = 2ch   B = A 2h
    error_x   (+, -)   A = 2h    B = A 2ch

This module needs only the standard library.
"""

from __future__ import annotations

import functools
import math
from operator import index, mul

from .errors import CutoffError, DomainError, record

# Highest per-side photon number the tables accept.  Pairs then stay
# within a 40-photon total, where the Fock-state simulation the tests
# check these closed forms against is still exact (its products of
# binomials stay below 2**53); beyond it the tables have no oracle.
MAX_CUTOFF = 20


class DetectorParams(record("DetectorParams", "efficiency dark_count")):
    """Threshold-detector model shared by all four detectors."""

    __slots__ = ()

    def __new__(cls, efficiency: float, dark_count: float) -> DetectorParams:
        if not 0.0 <= efficiency <= 1.0:
            raise DomainError(f"efficiency must lie in [0, 1], got {efficiency}")
        if not 0.0 <= dark_count < 1.0:
            raise DomainError(f"dark count must lie in [0, 1), got {dark_count}")
        return tuple.__new__(cls, (efficiency, dark_count))


@functools.lru_cache(maxsize=1024)
def _y1_block(dark_count: float, rows: int, cols: int) -> tuple:
    """The [:rows, :cols] blocks of the four Y1 tables, in YieldTable's
    channel order and flattened in the order of ``[x * y for x in a for
    y in b]``, from the module's A/B table.  A and B are exact, so
    (A - B) + p_d B replaces A - (1 - p_d) B without cancellation."""
    silent = 1.0 - dark_count
    weight = silent * silent
    blocks = ([], [], [], [])
    cz, ez, cx, ex = (block.append for block in blocks)
    for i in range(rows):
        for j in range(cols):
            two_h = 2.0 * 0.5 ** (i + j)
            two_ch = float(math.comb(i + j, i)) * two_h
            b_z = two_h if i == 0 or j == 0 else 0.0
            b_x = two_ch * two_h
            cz(weight * ((two_h - b_z) + dark_count * b_z))
            ez(weight * ((two_ch - two_ch) + dark_count * two_ch))
            cx(weight * ((two_ch - b_x) + dark_count * b_x))
            ex(weight * ((two_h - b_x) + dark_count * b_x))
    for block in blocks:  # the vacuum pair
        block[0] = 2.0 * dark_count * dark_count * silent * silent
    return tuple(map(tuple, blocks))


class YieldTable(record("YieldTable", "params cutoff")):
    """Bell-measurement yields per photon-number pair at one efficiency.

    The yield of the pair (i, j) is the psi_plus yield when the two
    sources emit i and j photons in the canonical input pair of a
    channel, in the order

    * ``correct_z`` for (H, V), ``error_z`` for (H, H);
    * ``correct_x`` for (plus, plus), ``error_x`` for (plus, minus).

    The factor-4 multiplicity of equivalent input/outcome combinations
    cancels against the 1/4 probability of each basis-state pair, so
    these single-pair yields multiply photon-number probabilities
    directly in gain formulas.  Every gain is a contraction (``contract``)
    against the four unit-efficiency tables Y1 of the dark count; the
    loss ``params.efficiency`` acts on the photon statistics before it
    (``sources.transmitted``), never on the table.  ``cutoff``, the
    highest photon number per side, is an integer in [1, MAX_CUTOFF].
    """

    __slots__ = ()

    def __new__(cls, params: DetectorParams, cutoff: int) -> YieldTable:
        try:
            cutoff = index(cutoff)
        except TypeError:
            raise DomainError(f"cutoff must be an integer, got {cutoff!r}") from None
        if cutoff < 1:
            raise DomainError(f"cutoff must be >= 1, got {cutoff}")
        if cutoff > MAX_CUTOFF:
            raise CutoffError(
                f"cutoff {cutoff} exceeds the numeric precision budget "
                f"(max {MAX_CUTOFF} per side)"
            )
        return tuple.__new__(cls, (params, cutoff))

    def contract(self, a: tuple, b: tuple) -> tuple:
        """(correct_z, error_z, correct_x, error_x) gains of the two
        photon-number distributions that reach the relay, ``a`` and ``b``
        (tuples of probabilities from zero photons up, after loss), each
        at most ``cutoff + 1`` long."""
        products = [x * y for x in a for y in b]
        cz, ez, cx, ex = _y1_block(self.params.dark_count, len(a), len(b))
        return (sum(map(mul, products, cz)), sum(map(mul, products, ez)),
                sum(map(mul, products, cx)), sum(map(mul, products, ex)))


yield_tables = YieldTable  # the constructor under its public name
