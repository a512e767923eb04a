"""Seeded inputs of the three workloads.

Each seed selects one variant of a workload.  The variants share the
workload's shape (grid size, candidate counts, search structure), so the
amount of work does not depend on the seed, and every variant has
reference values frozen in ``reference/``.  Seed 0 gives the inputs as
the workload is documented.
"""

WORKLOADS = ("compare-cold", "optimize-warm", "calibrate-cold")

# compare-cold: 0-400 km in 10 km steps, shifted by the offset.
COMPARE_OFFSETS_KM = (0.0, 2.5, 5.0, 7.5)
COMPARE_SOURCES = ("sps", "css", "nonideal_css", "wcs")

# optimize-warm: 0-200 km in 50 km steps, shifted by the offset.
OPTIMIZE_OFFSETS_KM = (0.0, 12.5, 25.0, 37.5)
OPTIMIZE_SOURCES = ("css", "nonideal_css", "wcs")
MU1_VALUES = tuple(round(0.05 + 0.025 * k, 10) for k in range(23))
MU2_VALUES = tuple(round(0.005 + 0.005 * k, 10) for k in range(20))

# calibrate-cold: WCS (signal, decoy) intensities.  Each pair makes the
# same 116 evaluations at 22 distinct distances as the paper's 0.4/0.07.
CALIBRATE_INTENSITIES = ((0.4, 0.07), (0.39, 0.069), (0.395, 0.071), (0.405, 0.069))
CALIBRATE_WINDOW_KM = (170.0, 230.0)
CALIBRATE_START = 1e14
CALIBRATE_STEP_KM = 5.0
CALIBRATE_MAX_KM = 600.0

_VARIANTS = {
    "compare-cold": len(COMPARE_OFFSETS_KM),
    "optimize-warm": len(OPTIMIZE_OFFSETS_KM),
    "calibrate-cold": len(CALIBRATE_INTENSITIES),
}


def grid(start_km, count, step_km):
    """Distances as ``DistanceGrid.distances`` computes them."""
    return [start_km + k * step_km for k in range(count)]


def _config(pairs):
    return "".join(f"{key} = {value}\n" for key, value in pairs)


def compare_config(start_km, stop_km, step_km):
    return _config(
        [
            ("grid.start_km", repr(start_km)),
            ("grid.stop_km", repr(stop_km)),
            ("grid.step_km", repr(step_km)),
            ("finite_key.method", "standard"),
            ("finite_key.pulse_pairs", "1e14"),
            ("bsm.cutoff", "15"),
        ]
    )


def optimize_config(source, start_km, stop_km, step_km):
    return _config(
        [
            ("source.kind", source),
            ("source.odd_weight", "0.7"),
            ("grid.start_km", repr(start_km)),
            ("grid.stop_km", repr(stop_km)),
            ("grid.step_km", repr(step_km)),
            ("finite_key.method", "chernoff"),
            ("finite_key.pulse_pairs", "1e14"),
            ("optimize.mu1_values", ", ".join(map(repr, MU1_VALUES))),
            ("optimize.mu2_values", ", ".join(map(repr, MU2_VALUES))),
        ]
    )


def calibrate_config(mu1, mu2):
    return _config(
        [
            ("source.kind", "wcs"),
            ("source.signal_mu", repr(mu1)),
            ("source.decoy_mu", repr(mu2)),
            ("finite_key.method", "standard"),
            ("finite_key.pulse_pairs", repr(CALIBRATE_START)),
        ]
    )


def make_inputs(workload, seed):
    """Inputs of one run: config texts and the expected output shape."""
    variant = seed % _VARIANTS[workload]
    if workload == "compare-cold":
        offset = COMPARE_OFFSETS_KM[variant]
        return {
            "workload": workload,
            "variant": variant,
            "config": compare_config(offset, 400.0 + offset, 10.0),
            "rows": [[s, d] for s in COMPARE_SOURCES for d in grid(offset, 41, 10.0)],
        }
    if workload == "optimize-warm":
        offset = OPTIMIZE_OFFSETS_KM[variant]
        return {
            "workload": workload,
            "variant": variant,
            "configs": [optimize_config(s, offset, 200.0 + offset, 50.0) for s in OPTIMIZE_SOURCES],
            "rows": [[s, d] for s in OPTIMIZE_SOURCES for d in grid(offset, 5, 50.0)],
        }
    if workload == "calibrate-cold":
        return {
            "workload": workload,
            "variant": variant,
            "config": calibrate_config(*CALIBRATE_INTENSITIES[variant]),
            "window": list(CALIBRATE_WINDOW_KM),
            "start": CALIBRATE_START,
            "step_km": CALIBRATE_STEP_KM,
            "max_km": CALIBRATE_MAX_KM,
        }
    raise ValueError(f"unknown workload {workload!r}")
