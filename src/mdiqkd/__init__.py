"""Key rates for measurement-device-independent QKD.

The package computes, in closed form, the relay's Bell-state-measurement
yields per photon-number pair and the photon statistics after fiber and
detector loss of several source families (coherent-state
superpositions, phase-randomized coherent states, single photons),
bounds the single-photon contribution with decoy-state estimators, and
applies finite-size penalties to every observed quantity.  It needs
only the standard library.
"""

from .bsm import DetectorParams, MAX_CUTOFF, YieldTable, yield_tables
from .config import (DistanceGrid, FiniteKeyConfig, Scenario, SystemParams, load_scenario,
                     parse_kv_text, scenario_from_mapping)
from .decoy import DecoyEstimate, FLAG_CLAMPED, FLAG_ERROR_ABOVE_HALF
from .errors import ConfigError, CutoffError, DomainError
from .finite_key import DEFAULT_EPSILON, FluctuationMethod
from .rates import (
    GainSet,
    KeyRatePoint,
    SinglePhotonQuantities,
    binary_entropy,
    gains,
    key_rate,
    true_single_photon_quantities,
)
from .sources import SourceKind, SourceSpec
from .sweep import (
    CalibrationResult,
    calibrate_pulse_pairs,
    compare_sources,
    comparison_scenarios,
    cutoff_distance,
    evaluate_point,
    optimize_intensities,
    run_sweep,
    write_csv,
)

__version__ = "0.1.0"

__all__ = [
    "CalibrationResult",
    "ConfigError",
    "CutoffError",
    "DecoyEstimate",
    "DetectorParams",
    "DistanceGrid",
    "DomainError",
    "DEFAULT_EPSILON",
    "FLAG_CLAMPED",
    "FLAG_ERROR_ABOVE_HALF",
    "FiniteKeyConfig",
    "FluctuationMethod",
    "GainSet",
    "KeyRatePoint",
    "MAX_CUTOFF",
    "Scenario",
    "SinglePhotonQuantities",
    "SourceKind",
    "SourceSpec",
    "SystemParams",
    "YieldTable",
    "binary_entropy",
    "calibrate_pulse_pairs",
    "compare_sources",
    "comparison_scenarios",
    "cutoff_distance",
    "evaluate_point",
    "gains",
    "key_rate",
    "load_scenario",
    "optimize_intensities",
    "parse_kv_text",
    "run_sweep",
    "scenario_from_mapping",
    "true_single_photon_quantities",
    "write_csv",
    "yield_tables",
]
