"""The four configuration types and the flat key=value format that sets them.

A config file holds one ``section.key = value`` pair per line, with
``#`` comments and blank lines ignored::

    source.kind = css
    source.signal_mu = 0.1
    source.decoy_mu = 0.01
    system.dark_count = 1e-7
    grid.start_km = 0
    grid.stop_km = 400
    grid.step_km = 25
    finite_key.method = standard

Unknown keys, duplicate keys and malformed values are rejected with the
offending line number, so typos fail loudly instead of silently running
with defaults.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from functools import partial

from .bsm import DetectorParams
from .errors import ConfigError, DomainError
from .finite_key import DEFAULT_EPSILON, FluctuationMethod
from .sources import SourceKind, SourceSpec

# Far beyond any rate curve, small enough that a tiny step cannot exhaust memory.
MAX_GRID_POINTS = 100_000

_METHODS = {m.value: m for m in FluctuationMethod}

# A signal source is any kind with a decoy estimator: all but the vacuum.
_SIGNAL_KINDS = {kind.value: kind for kind in SourceKind if kind is not SourceKind.VACUUM}


def _check_distance(distance_km: float) -> None:
    if not (math.isfinite(distance_km) and distance_km >= 0.0):
        raise DomainError(f"distance must be finite and >= 0, got {distance_km}")


@dataclass(frozen=True)
class SystemParams:
    """Link and hardware parameters of one symmetric relay setup.

    The relay sits halfway between the two sources, so each arm spans
    ``distance_km / 2`` of fiber and both arms share one overall
    efficiency.
    """

    distance_km: float = 0.0
    detector_efficiency: float = 0.40
    dark_count: float = 1e-7
    fiber_loss_db_km: float = 0.2
    misalignment: float = 0.015
    ec_efficiency: float = 1.16

    def __post_init__(self) -> None:
        _check_distance(self.distance_km)
        if not 0.0 < self.detector_efficiency <= 1.0:
            raise DomainError(
                f"detector efficiency must lie in (0, 1], got {self.detector_efficiency}"
            )
        if not 0.0 <= self.dark_count < 1.0:
            raise DomainError(f"dark count must lie in [0, 1), got {self.dark_count}")
        if not (math.isfinite(self.fiber_loss_db_km) and self.fiber_loss_db_km >= 0.0):
            raise DomainError(
                f"fiber loss must be finite and >= 0, got {self.fiber_loss_db_km}"
            )
        if not 0.0 <= self.misalignment <= 1.0:
            raise DomainError(f"misalignment must lie in [0, 1], got {self.misalignment}")
        if not (math.isfinite(self.ec_efficiency) and self.ec_efficiency >= 1.0):
            raise DomainError(
                f"error-correction efficiency must be finite and >= 1, "
                f"got {self.ec_efficiency}"
            )

    def efficiency_at(self, distance_km: float) -> float:
        """Detector efficiency times one arm's fiber transmittance at
        ``distance_km``, the one input a pipeline checks per point."""
        _check_distance(distance_km)
        return self.detector_efficiency * 10.0 ** (
            -self.fiber_loss_db_km * distance_km / 20.0
        )

    def detector_params(self) -> DetectorParams:
        return DetectorParams(self.efficiency_at(self.distance_km), self.dark_count)


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
        if not (math.isfinite(self.sigmas) and self.sigmas > 0.0):
            raise ConfigError(f"sigmas must be finite and > 0, got {self.sigmas}")
        if not 0.0 < self.epsilon < 1.0:
            raise ConfigError(f"epsilon must lie in (0, 1), got {self.epsilon}")


@dataclass(frozen=True)
class DistanceGrid:
    """Inclusive arithmetic grid of total source-to-source distances."""

    start_km: float = 0.0
    stop_km: float = 400.0
    step_km: float = 25.0

    def __post_init__(self) -> None:
        if not (math.isfinite(self.start_km) and math.isfinite(self.stop_km)):
            raise ConfigError(
                f"grid start and stop must be finite, got "
                f"({self.start_km}, {self.stop_km})"
            )
        if self.start_km < 0.0:
            raise ConfigError(f"grid start must be >= 0, got {self.start_km}")
        if self.stop_km < self.start_km:
            raise ConfigError(
                f"grid stop ({self.stop_km}) must be >= start ({self.start_km})"
            )
        if not self.step_km > 0.0:
            raise ConfigError(f"grid step must be > 0, got {self.step_km}")
        points = self._point_count()
        if points > MAX_GRID_POINTS:
            raise ConfigError(f"grid has {points} points, more than {MAX_GRID_POINTS}")

    def _point_count(self) -> int | float:
        """Number of grid distances; inf when the step underflows the span."""
        steps = (self.stop_km - self.start_km) / self.step_km + 1e-9
        return math.floor(steps) + 1 if math.isfinite(steps) else math.inf

    def distances(self) -> tuple[float, ...]:
        return tuple(self.start_km + k * self.step_km for k in range(self._point_count()))


@dataclass(frozen=True)
class Scenario:
    """Complete description of one rate-versus-distance computation."""

    source_kind: SourceKind = SourceKind.CSS
    signal_mu: float = 0.1
    decoy_mu: float = 0.01
    odd_weight: float = 0.7
    system: SystemParams = SystemParams()
    grid: DistanceGrid = DistanceGrid()
    finite_key: FiniteKeyConfig = FiniteKeyConfig()
    cutoff: int = 15
    mu1_candidates: tuple[float, ...] = (0.05, 0.1, 0.2, 0.3)
    mu2_candidates: tuple[float, ...] = (0.01, 0.02, 0.05)

    def __post_init__(self) -> None:
        if self.source_kind not in _SIGNAL_KINDS.values():
            raise ConfigError(f"{self.source_kind} cannot be used as a signal source")
        if self.source_kind is not SourceKind.SPS:
            if not self.signal_mu > self.decoy_mu > 0.0:
                raise ConfigError(
                    f"intensities must satisfy signal_mu > decoy_mu > 0, got "
                    f"({self.signal_mu}, {self.decoy_mu})"
                )
        if not 0.0 < self.odd_weight <= 1.0:
            raise ConfigError(f"odd_weight must lie in (0, 1], got {self.odd_weight}")
        try:
            cutoff = operator.index(self.cutoff)
        except TypeError:
            raise ConfigError(f"cutoff must be an integer, got {self.cutoff!r}") from None
        if cutoff < 1:
            raise ConfigError(f"cutoff must be >= 1, got {cutoff}")
        if not self.mu1_candidates or not self.mu2_candidates:
            raise ConfigError("optimization grids must be non-empty")

    def signal_spec(self, mu: float | None = None) -> SourceSpec:
        """Source specification at intensity ``mu`` (default: signal_mu)."""
        kind = self.source_kind
        if kind is SourceKind.SPS:
            return SourceSpec.sps()
        odd_weight = self.odd_weight if kind is SourceKind.NONIDEAL_CSS else 1.0
        return SourceSpec(kind, self.signal_mu if mu is None else mu, odd_weight)


def parse_kv_text(text: str) -> dict[str, str]:
    """Parse ``key = value`` lines into a mapping, tracking line numbers.
    One leading byte-order mark, as some editors write, is dropped."""
    mapping: dict[str, str] = {}
    for lineno, raw in enumerate(text.removeprefix("\ufeff").splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if not key:
            raise ConfigError(f"line {lineno}: empty key")
        if key in mapping:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        if not value:
            raise ConfigError(f"line {lineno}: empty value for {key!r}")
        mapping[key] = value
    return mapping


def _parse_float(key: str, value: str) -> float:
    try:
        out = float(value)
    except ValueError:
        raise ConfigError(f"{key}: expected a number, got {value!r}") from None
    if not math.isfinite(out):
        raise ConfigError(f"{key}: value must be finite, got {value!r}")
    return out


def _parse_int(key: str, value: str) -> int:
    try:
        return int(value)
    except ValueError:
        raise ConfigError(f"{key}: expected an integer, got {value!r}") from None


def _parse_float_list(key: str, value: str) -> tuple[float, ...]:
    items = [item.strip() for item in value.split(",") if item.strip()]
    if not items:
        raise ConfigError(f"{key}: expected a comma-separated list of numbers")
    return tuple(_parse_float(key, item) for item in items)


def _parse_choice(choices: dict, key: str, value: str):
    try:
        return choices[value]
    except KeyError:
        raise ConfigError(
            f"{key}: expected one of {sorted(choices)}, got {value!r}"
        ) from None


# Each config key sets one field of one dataclass; the defaults live on
# the dataclasses.
_KEYS = {
    "source.kind": (Scenario, "source_kind", partial(_parse_choice, _SIGNAL_KINDS)),
    "source.signal_mu": (Scenario, "signal_mu", _parse_float),
    "source.decoy_mu": (Scenario, "decoy_mu", _parse_float),
    "source.odd_weight": (Scenario, "odd_weight", _parse_float),
    "system.detector_efficiency": (SystemParams, "detector_efficiency", _parse_float),
    "system.dark_count": (SystemParams, "dark_count", _parse_float),
    "system.fiber_loss_db_km": (SystemParams, "fiber_loss_db_km", _parse_float),
    "system.misalignment": (SystemParams, "misalignment", _parse_float),
    "system.ec_efficiency": (SystemParams, "ec_efficiency", _parse_float),
    "grid.start_km": (DistanceGrid, "start_km", _parse_float),
    "grid.stop_km": (DistanceGrid, "stop_km", _parse_float),
    "grid.step_km": (DistanceGrid, "step_km", _parse_float),
    "finite_key.method": (FiniteKeyConfig, "method", partial(_parse_choice, _METHODS)),
    "finite_key.pulse_pairs": (FiniteKeyConfig, "pulse_pairs", _parse_float),
    "finite_key.sigmas": (FiniteKeyConfig, "sigmas", _parse_float),
    "finite_key.epsilon": (FiniteKeyConfig, "epsilon", _parse_float),
    "bsm.cutoff": (Scenario, "cutoff", _parse_int),
    "optimize.mu1_values": (Scenario, "mu1_candidates", _parse_float_list),
    "optimize.mu2_values": (Scenario, "mu2_candidates", _parse_float_list),
}


def scenario_from_mapping(mapping: dict[str, str]) -> Scenario:
    """Build a validated Scenario from raw config pairs."""
    fields: dict[type, dict] = {target: {} for target, _, _ in _KEYS.values()}
    for key, raw in mapping.items():
        if key not in _KEYS:
            raise ConfigError(f"unknown config key {key!r}")
        target, field, parse = _KEYS[key]
        fields[target][field] = parse(key, raw)
    try:
        system = SystemParams(**fields[SystemParams])
    except DomainError as exc:
        raise ConfigError(str(exc)) from None
    return Scenario(
        system=system,
        grid=DistanceGrid(**fields[DistanceGrid]),
        finite_key=FiniteKeyConfig(**fields[FiniteKeyConfig]),
        **fields[Scenario],
    )


def load_scenario(
    text: str | None = None,
    method: str | None = None,
    pulse_pairs: float | None = None,
) -> Scenario:
    """Parse config text; ``method`` and ``pulse_pairs``, when given, set
    the keys ``finite_key.method`` and ``finite_key.pulse_pairs`` in
    place of any value the text gives them."""
    mapping = parse_kv_text(text) if text else {}
    if method is not None:
        mapping["finite_key.method"] = method
    if pulse_pairs is not None:
        # repr round-trips every float, so the key parses back to it exactly
        mapping["finite_key.pulse_pairs"] = repr(float(pulse_pairs))
    return scenario_from_mapping(mapping)
