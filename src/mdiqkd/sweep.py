"""Rate-versus-distance pipelines and the CSV result format.

``evaluate_point`` wires the full chain for one distance: each source's
photon statistics after loss, in closed form -> observed gains,
contracted against the lossless relay yield tables -> decoy bounds with
finite-size worst-casing -> key rate.  One path serves every source
family and the library alike: ``decoy.estimate`` picks the estimator,
and ``decoy.channels`` the gains it reads (vacuum channels only where
the source emits an even-photon sector).  Three memos serve the gain
path.  The lossless table blocks depend only on the dark-count
probability and the block shape and serve every source and distance.
``_intensity`` holds each intensity's share of an evaluation at one
distance, keyed by (source spec, efficiency, dark count, cutoff,
misalignment): its diagonal gain and its gain with the vacuum where the
estimator reads vacuum channels, both contracted from one read of its
statistics after loss (``sources.transmitted``, itself not memoised).
``SourceSpec.emitted_head`` memoises each spec's emitted (P0, P1, Pm).
A point reads its signal, decoy and vacuum entries, so a point that
differs from an earlier one only in the pulse count (a calibration
step) or in one intensity (an ``optimize`` grid) pays lookups for what
it shares.  The vacuum arrives unchanged at every efficiency, so its
entry serves every distance.  Mirrored vacuum channels ("s0" and "0s",
"d0" and "0d") share one gain, and so one interval.  The finite-size
interval pass is not memoised: each evaluation applies its method's
kernel once to every distinct gain (``finite_key.interval_kernel``).

All pipelines are serial and deterministic: identical inputs give
bit-identical results in grid order.
"""

from __future__ import annotations

import io
import math
from collections.abc import Callable, Iterable, Sequence
from dataclasses import replace
from functools import lru_cache

from .config import FiniteKeyConfig, Scenario
from .decoy import channels, estimate
from .errors import DomainError, record
from .finite_key import interval_kernel
from .rates import KeyRatePoint, contract_gains, key_rate
from .sources import SourceKind, SourceSpec, transmitted

_VACUUM = SourceSpec.vacuum()


@lru_cache(maxsize=1024)
def _intensity(spec: SourceSpec, efficiency: float, dark_count: float,
               cutoff: int, misalignment: float) -> tuple:
    """One intensity's share of every evaluation at one distance, from one
    read of its arriving light: its diagonal gain and its gain with the
    vacuum, which arrives as (1.0,), where its estimator reads vacuum
    channels (else None).  Every intensity pair, pulse count and method
    shares it.  The "00" entry is the same at every efficiency: read at 1."""
    arriving = transmitted(spec, efficiency, cutoff)[0]
    reads_vacuum = "00" in channels(spec)
    return (
        contract_gains(dark_count, arriving, arriving, misalignment),
        contract_gains(dark_count, arriving, (1.0,), misalignment) if reads_vacuum else None,
    )


def _evaluate(scenario: Scenario, spec_signal: SourceSpec, spec_decoy: SourceSpec,
              finite_key: FiniteKeyConfig, distance_km: float) -> KeyRatePoint:
    """``evaluate_point`` with these sources and statistics in place of
    the scenario's, so a search or grid builds no scenario per point."""
    system = scenario.system
    kind = scenario.source_kind
    eta = system.efficiency_at(distance_km)
    at = (eta, system.dark_count, scenario.cutoff, system.misalignment)
    gains_signal, signal_vacuum = _intensity(spec_signal, *at)
    gains_decoy, decoy_vacuum = _intensity(spec_decoy, *at)
    channel_gains = {"ss": gains_signal, "dd": gains_decoy}
    # A vacuum channel and its mirror ("s0" and "0s") share the gain with
    # the vacuum second.  It is bitwise the same both ways because Y1 is
    # symmetric, the vacuum arrives as (1.0,), and both arms share one
    # efficiency; an asymmetric relay would need both.  For the same
    # reason "00" is the same at every efficiency: one entry per setting.
    if signal_vacuum is not None:
        channel_gains.update({
            "s0": signal_vacuum, "0s": signal_vacuum,
            "d0": decoy_vacuum, "0d": decoy_vacuum,
            "00": _intensity(_VACUUM, 1.0, *at[1:])[0],
        })
    bounds = estimate(spec_signal, spec_decoy, channel_gains, interval_kernel(finite_key))
    p1 = spec_signal.emitted_head[1]
    # (1, 1) coincidences are among all coincidences, so Q11 <= Q_Z; a
    # bound not rounded outward can pass it by a rounding.
    q11_z = min(p1 * p1 * bounds.y11_lower, gains_signal.total_z)
    raw = key_rate(q11_z, bounds.e11_upper, gains_signal.total_z, gains_signal.qber_z,
                   system.ec_efficiency)
    return KeyRatePoint(
        distance_km=distance_km,
        source=kind.value,
        method=finite_key.method.value,
        mu_signal=spec_signal.mu,
        mu_decoy=spec_decoy.mu,
        gains_signal=gains_signal,
        y11_lower=bounds.y11_lower,
        e11_upper=bounds.e11_upper,
        q11_z=q11_z,
        rate=max(0.0, raw),
        rate_unclamped=raw,
        flags=bounds.flags,
    )


def evaluate_point(scenario: Scenario, distance_km: float) -> KeyRatePoint:
    """Evaluate the key rate of one scenario at one distance."""
    specs = scenario.signal_spec(), scenario.signal_spec(scenario.decoy_mu)
    return _evaluate(scenario, *specs, scenario.finite_key, distance_km)


def run_sweep(scenario: Scenario) -> list[KeyRatePoint]:
    """Key rate at every grid distance, ordered by distance."""
    specs = scenario.signal_spec(), scenario.signal_spec(scenario.decoy_mu)
    return [_evaluate(scenario, *specs, scenario.finite_key, d)
            for d in scenario.grid.distances()]


# Benchmark intensity settings used by the source comparison, chosen so
# each family runs with its natural estimator.
COMPARISON_SETTINGS = (
    (SourceKind.SPS, None, None),
    (SourceKind.CSS, 0.1, 0.01),
    (SourceKind.NONIDEAL_CSS, 0.1, 0.01),
    (SourceKind.WCS, 0.4, 0.07),
)


def comparison_scenarios(base: Scenario) -> list[Scenario]:
    """The four standard source setups sharing the base system and grid."""
    scenarios = []
    for kind, mu1, mu2 in COMPARISON_SETTINGS:
        updates = {"source_kind": kind}
        if mu1 is not None:
            updates.update(signal_mu=mu1, decoy_mu=mu2)
        scenarios.append(replace(base, **updates))
    return scenarios


def compare_sources(base: Scenario) -> list[KeyRatePoint]:
    """Sweep all four standard sources; rows grouped by source."""
    points: list[KeyRatePoint] = []
    for scenario in comparison_scenarios(base):
        points.extend(run_sweep(scenario))
    return points


def _best_point(scenario: Scenario, pairs: Sequence[tuple[SourceSpec, SourceSpec]],
                distance_km: float) -> KeyRatePoint:
    best = None
    for specs in pairs:
        candidate = _evaluate(scenario, *specs, scenario.finite_key, distance_km)
        # Strict comparison keeps the first (smallest mu1, then mu2)
        # among rate ties, so results do not depend on grid order.
        if best is None or candidate.rate > best.rate:
            best = candidate
    return best


def optimize_intensities(scenario: Scenario) -> list[KeyRatePoint]:
    """Best (signal, decoy) intensity pair per distance, by key rate."""
    if scenario.source_kind is SourceKind.SPS:
        raise DomainError("single-photon sources have no intensities to optimize")
    pairs = [
        (scenario.signal_spec(mu1), scenario.signal_spec(mu2))
        for mu1 in sorted(scenario.mu1_candidates)
        for mu2 in sorted(scenario.mu2_candidates)
        if mu1 > mu2 > 0.0
    ]
    if not pairs:
        raise DomainError(
            "no feasible intensity pairs: every candidate violates mu1 > mu2 > 0"
        )
    return [_best_point(scenario, pairs, d) for d in scenario.grid.distances()]


def _grid_steps(max_km: float, step_km: float) -> int:
    """Index of the last point of the search grid {0, step, 2 step, ...}
    up to ``max_km``."""
    if not (math.isfinite(step_km) and step_km > 0.0):
        raise DomainError(f"step_km must be finite and > 0, got {step_km}")
    steps = max_km / step_km
    if not (math.isfinite(steps) and steps >= 0.0):
        raise DomainError(
            f"max_km must be >= 0 with max_km / step_km finite, got {max_km}"
        )
    return int(math.floor(steps + 1e-9))


def _last_positive(
    positive: Callable[[int], bool], steps: int, lo: int, hi: int
) -> int:
    """Last index in 0..steps at which ``positive`` holds, or -1.

    ``positive`` must hold up to some index and fail beyond it (the rate
    does not rise with distance).  (lo, hi), with -1 <= lo <= steps and
    0 <= hi <= steps + 1, is only a guess at the bracket: positive(lo)
    and not positive(hi).  Both ends are checked, and a failed check
    widens the bracket to the grid end beyond it.  -1 and steps + 1 are
    the grid's sentinels, never evaluated.  The full-grid guess
    (0, steps) evaluates 0, steps, then the midpoints: a plain bisection.
    """
    hi = max(hi, lo + 1)
    if lo >= 0 and not positive(lo):
        lo, hi = -1, lo
    elif hi <= steps and positive(hi):
        lo, hi = hi, steps + 1
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if positive(mid):
            lo = mid
        else:
            hi = mid
    return lo


def _rate_positive(scenario: Scenario, step_km: float) -> Callable[[int], bool]:
    return lambda index: evaluate_point(scenario, index * step_km).rate > 0.0


def cutoff_distance(
    scenario: Scenario, max_km: float = 800.0, step_km: float = 5.0
) -> float | None:
    """Largest grid distance with a positive key rate.

    Searches the arithmetic grid {0, step, 2 step, ...} up to ``max_km``
    by bisection, relying on the rate being nonincreasing in distance.
    Returns None when the rate already vanishes at zero distance.
    """
    steps = _grid_steps(max_km, step_km)
    index = _last_positive(_rate_positive(scenario, step_km), steps, 0, steps)
    return None if index < 0 else index * step_km


class CalibrationResult(record("CalibrationResult", "pulse_pairs cutoff_km in_window")):
    """Outcome of tuning the pulse count to hit a cutoff window: the
    count, its cutoff distance (None without key) and whether that
    cutoff lies in the window."""

    __slots__ = ()


def calibrate_pulse_pairs(
    scenario: Scenario,
    window: tuple[float, float] = (170.0, 230.0),
    bounds: tuple[float, float] = (1e12, 1e16),
    start: float = 1e14,
    step_km: float = 5.0,
    max_km: float = 600.0,
) -> CalibrationResult:
    """Tune the pulse count until the cutoff distance enters ``window``.

    The cutoff distance grows monotonically with the number of pulse
    pairs, so a bisection in log(N) converges quickly.  When no count
    inside ``bounds`` reaches the window, the nearest bound and its
    cutoff are reported with ``in_window=False``.  When the window holds
    no grid distance, the result is a count within 2 % of where the
    cutoff crosses the window, with its cutoff below the window, and
    ``in_window=False``.  ``start`` is clamped into ``bounds``.

    A step of the search in N asks only whether the cutoff (on
    ``cutoff_distance``'s grid) reaches the window's lower edge or passes
    its upper edge, and one evaluation answers it: the rate at the first
    grid distance at or past the lower edge, or at the first past the
    upper edge.  So every step evaluates the same one or two distances.
    Only a count whose cutoff is reported gets a full search, bracketed
    by those two distances: the start when it is already in the window,
    a bound that is returned, and the final candidate.  The final
    candidate is within 2 % of a count that answered its last step the
    other way, so its search first tests the grid point beside that
    step's edge, on the side of the candidate's own answer; where that
    point agrees, it decides the cutoff, and the search ends after one
    evaluation.  No (count, distance) point is evaluated twice.  This
    rests on the assumption ``cutoff_distance`` makes, that the rate does
    not rise with distance: then the cutoff is at or past a grid distance
    exactly when the rate there is positive.
    """
    lo_w, hi_w = window
    if not lo_w <= hi_w:
        raise DomainError(f"window must satisfy lower <= upper, got {window}")
    if not 1.0 <= bounds[0] <= bounds[1] < math.inf:
        raise DomainError(
            f"bounds must be finite with 1 <= lower <= upper, got {bounds}"
        )
    if not math.isfinite(start):
        raise DomainError(f"start must be finite, got {start}")
    steps = _grid_steps(max_km, step_km)
    # First grid index at or past each edge, by the product the search
    # evaluates; steps + 1 when the grid ends before the edge.
    k_lo = _last_positive(lambda k: k * step_km < lo_w, steps, 0, steps) + 1
    k_hi = _last_positive(lambda k: k * step_km <= hi_w, steps, 0, steps) + 1

    specs = scenario.signal_spec(), scenario.signal_spec(scenario.decoy_mu)

    @lru_cache(maxsize=None)
    def positive(pulse_pairs: float, index: int) -> bool:
        finite_key = replace(scenario.finite_key, pulse_pairs=pulse_pairs)
        return _evaluate(scenario, *specs, finite_key, index * step_km).rate > 0.0

    # "No key" is the cutoff -1.0, which reaches every lo <= -1 and
    # passes every hi < -1.
    def reaches(pulse_pairs: float) -> bool:
        return lo_w <= -1.0 or (k_lo <= steps and positive(pulse_pairs, k_lo))

    def passes(pulse_pairs: float) -> bool:
        return hi_w < -1.0 or (k_hi <= steps and positive(pulse_pairs, k_hi))

    def in_window(pulse_pairs: float) -> bool:
        return not passes(pulse_pairs) and reaches(pulse_pairs)

    def result(
        pulse_pairs: float, lo: int = min(k_lo, steps), hi: int = k_hi
    ) -> CalibrationResult:
        index = _last_positive(lambda k: positive(pulse_pairs, k), steps, lo, hi)
        cut = -1.0 if index < 0 else index * step_km
        return CalibrationResult(
            pulse_pairs, None if cut < 0.0 else cut, lo_w <= cut <= hi_w
        )

    start = min(max(start, bounds[0]), bounds[1])
    if in_window(start):
        return result(start)

    lo_n, hi_n = start, start
    if not passes(start):
        # Too few pulses: grow until the window's lower edge is reached.
        while not reaches(hi_n):
            if hi_n >= bounds[1]:
                return result(bounds[1])
            lo_n, hi_n = hi_n, min(hi_n * 10.0, bounds[1])
        predicate = reaches
    else:
        # Too many pulses: shrink until the window's upper edge is met.
        while passes(lo_n):
            if lo_n <= bounds[0]:
                return result(bounds[0])
            lo_n, hi_n = max(lo_n / 10.0, bounds[0]), lo_n
        predicate = passes

    # Invariant: predicate flips between lo_n and hi_n.  Tighten the
    # bracket until the endpoints nearly coincide, then report the
    # endpoint on the window side of the flip.
    while hi_n / lo_n > 1.02:
        mid = math.sqrt(lo_n * hi_n)
        if predicate(mid):
            hi_n = mid
        else:
            lo_n = mid
    final = hi_n if in_window(hi_n) else lo_n
    # The other endpoint, within 2 %, answered the edge test the other
    # way, so the cutoff most likely is the edge (rate positive there) or
    # the grid point below it.  One evaluation beside the edge confirms
    # that; otherwise bisect from it to the window's other edge or to the
    # grid's start.
    edge = k_lo if predicate is reaches else k_hi
    if positive(final, edge):
        lo, hi = edge, edge + 1
        if hi <= steps and positive(final, hi):
            lo, hi = hi, k_hi
    else:
        lo, hi = edge - 1, edge
        if lo >= 0 and not positive(final, lo):
            lo, hi = k_lo if k_lo < lo else -1, lo
    return result(final, lo, hi)


CSV_COLUMNS = (
    "distance_km",
    "source",
    "method",
    "mu1",
    "mu2",
    "q_z",
    "E_z",
    "y11_lower",
    "e11_upper",
    "rate",
)


def csv_rows(points: Iterable[KeyRatePoint]) -> list[str]:
    """The header and one row per point, in CSV_COLUMNS order.  "%.17g" of
    a value is format(float(value), ".17g"), inf, nan and -0 included."""
    return [",".join(CSV_COLUMNS)] + [
        "%.17g,%s,%s,%.17g,%.17g,%.17g,%.17g,%.17g,%.17g,%.17g" % (
            p.distance_km, p.source, p.method, p.mu_signal, p.mu_decoy,
            p.q_z, p.qber_z, p.y11_lower, p.e11_upper, p.rate,
        )
        for p in points
    ]


def write_lines(lines: Iterable[str], out: str | io.TextIOBase) -> None:
    """Write ASCII lines, each ended by a bare newline, to a path or an
    open text stream."""
    text = "\n".join(lines) + "\n"
    if isinstance(out, str):
        with open(out, "w", encoding="ascii", newline="") as handle:
            handle.write(text)
    else:
        out.write(text)


def write_csv(points: Iterable[KeyRatePoint], out: str | io.TextIOBase) -> None:
    """Write results with full float precision and a fixed column order."""
    write_lines(csv_rows(points), out)
