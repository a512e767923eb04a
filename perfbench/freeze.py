"""Regenerate the reference values in ``reference/`` from ``src/``.

Usage, from the root of a checkout: python3 perfbench/freeze.py

The committed references were frozen from the seed code.  Regenerate
them only when a change to the program's results is intended and
recorded; the benchmark's correctness check compares against them.

* compare-cold.csv: ``mdiqkd compare`` on 0-407.5 km in 2.5 km steps,
  which covers the grid of every compare-cold variant.
* optimize-warm.csv: on 0-237.5 km in 12.5 km steps, every intensity
  pair whose rate lies within 1e-9 * q_z of the best pair's rate.
* calibrate-cold.csv: the calibration result of every intensity variant.
* calibrate-cold-points.csv: for each variant in turn, the rates at the
  calibrated pulse count at the cutoff and one step beyond it.
"""

import os
import sys
import tempfile
from dataclasses import replace

sys.path.insert(0, os.path.abspath("src"))

import mdiqkd  # noqa: E402
import mdiqkd.cli  # noqa: E402

import check  # noqa: E402
import workloads as w  # noqa: E402


def _path(workload):
    return os.path.join(check.REFERENCE_DIR, f"{workload}.csv")


def freeze_compare():
    with tempfile.TemporaryDirectory() as tmp:
        config = os.path.join(tmp, "compare.cfg")
        with open(config, "w", encoding="ascii") as handle:
            handle.write(w.compare_config(0.0, 407.5, 2.5))
        code = mdiqkd.cli.main(["compare", "--config", config, "--out", _path("compare-cold")])
    if code != 0:
        raise SystemExit(f"mdiqkd compare exited with {code}")


def freeze_optimize():
    ties = []
    for source in w.OPTIMIZE_SOURCES:
        scenario = mdiqkd.load_scenario(w.optimize_config(source, 0.0, 237.5, 12.5))
        pairs = [
            (mu1, mu2)
            for mu1 in sorted(scenario.mu1_candidates)
            for mu2 in sorted(scenario.mu2_candidates)
            if mu1 > mu2 > 0.0
        ]
        for best in mdiqkd.optimize_intensities(scenario):
            for mu1, mu2 in pairs:
                point = mdiqkd.evaluate_point(
                    replace(scenario, signal_mu=mu1, decoy_mu=mu2), best.distance_km
                )
                if abs(point.rate - best.rate) <= check.RATE_TOL * best.q_z:
                    ties.append(point)
    with open(_path("optimize-warm"), "w", encoding="ascii", newline="") as handle:
        mdiqkd.write_csv(ties, handle)


def freeze_calibrate():
    results = ["variant,mu1,mu2,pulse_pairs,cutoff_km,in_window\n"]
    points = []
    for variant, (mu1, mu2) in enumerate(w.CALIBRATE_INTENSITIES):
        text = w.calibrate_config(mu1, mu2)
        found = mdiqkd.calibrate_pulse_pairs(
            mdiqkd.load_scenario(text),
            window=w.CALIBRATE_WINDOW_KM,
            start=w.CALIBRATE_START,
            step_km=w.CALIBRATE_STEP_KM,
            max_km=w.CALIBRATE_MAX_KM,
        )
        results.append(
            f"{variant},{mu1!r},{mu2!r},{found.pulse_pairs!r},{found.cutoff_km!r},{found.in_window}\n"
        )
        scenario = mdiqkd.load_scenario(text, pulse_pairs=found.pulse_pairs)
        for distance in (found.cutoff_km, found.cutoff_km + w.CALIBRATE_STEP_KM):
            points.append(mdiqkd.evaluate_point(scenario, distance))
    with open(_path("calibrate-cold"), "w", encoding="ascii", newline="") as handle:
        handle.writelines(results)
    with open(_path("calibrate-cold-points"), "w", encoding="ascii", newline="") as handle:
        mdiqkd.write_csv(points, handle)


if __name__ == "__main__":
    os.makedirs(check.REFERENCE_DIR, exist_ok=True)
    freeze_compare()
    freeze_optimize()
    freeze_calibrate()
