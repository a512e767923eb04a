"""Output checks: reference values frozen from the seed code, and invariants.

Tolerances: string columns and row counts match exactly; numeric columns
to a relative 1e-9; ``rate`` to an absolute 1e-9 * ``q_z``; a calibrated
pulse count to a relative 1e-6.  They admit reordered floating-point
sums (about 1e-15 relative) and reject a wrong yield table.
"""

import csv
import io
import math
import os
from dataclasses import replace

import mdiqkd

REFERENCE_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference")
STRING_COLUMNS = ("source", "method")
REL_TOL = 1e-9
RATE_TOL = 1e-9  # times the reference row's q_z
PULSE_PAIRS_TOL = 1e-6


def parse_csv(text):
    reader = csv.DictReader(io.StringIO(text))
    return reader.fieldnames, list(reader)


def read_reference(workload):
    with open(os.path.join(REFERENCE_DIR, f"{workload}.csv"), encoding="ascii") as handle:
        return parse_csv(handle.read())


def _close(a, b, rel):
    if a == b:
        return True
    return math.isfinite(a) and math.isfinite(b) and abs(a - b) <= rel * max(abs(a), abs(b))


def _row_mismatch(row, ref, columns):
    """First column where ``row`` disagrees with ``ref``, or None."""
    for column in columns:
        got, want = row[column], ref[column]
        if column in STRING_COLUMNS:
            ok = got == want
        elif column == "rate":
            ok = abs(float(got) - float(want)) <= RATE_TOL * float(ref["q_z"])
        else:
            ok = _close(float(got), float(want), REL_TOL)
        if not ok:
            return f"{column}: got {got}, reference {want}"
    return None


def _invariant_violation(row, y11_true):
    values = {c: float(v) for c, v in row.items() if c not in STRING_COLUMNS}
    for column, value in values.items():
        # An infinite phase-error bound is the documented outcome when no
        # single-photon X yield is left; the rate is then zero.
        if column == "e11_upper" and value == math.inf and values["rate"] == 0.0:
            continue
        if not math.isfinite(value):
            return f"{column} is {value}"
    if values["rate"] < 0.0:
        return f"negative rate {values['rate']}"
    if values["y11_lower"] > y11_true * (1.0 + REL_TOL):
        return f"y11_lower {values['y11_lower']} above the true y11 {y11_true}"
    return None


class Checker:
    """Checks one run's outputs; caches the true single-photon yields."""

    def __init__(self, inputs):
        self.inputs = inputs
        self.workload = inputs["workload"]
        if self.workload == "calibrate-cold":
            _, rows = read_reference(self.workload)
            self.reference = next(r for r in rows if int(r["variant"]) == inputs["variant"])
            self.header, rows = read_reference("calibrate-cold-points")
            self.points = rows[2 * inputs["variant"] : 2 * inputs["variant"] + 2]
        else:
            self.header, rows = read_reference(self.workload)
            self.reference = {}
            for r in rows:
                key = (r["source"], float(r["distance_km"]))
                self.reference.setdefault(key, {})[(float(r["mu1"]), float(r["mu2"]))] = r
        self._y11 = {}

    def true_y11(self, system, distance_km):
        """Exact (1, 1)-pair Z yield, from a cutoff-1 yield table."""
        key = (system, distance_km)
        if key not in self._y11:
            at = replace(system, distance_km=distance_km)
            table = mdiqkd.yield_tables(at.detector_params(), 1)
            self._y11[key] = mdiqkd.true_single_photon_quantities(table, at.misalignment).y11_z
        return self._y11[key]

    def check_rows(self, text, system):
        """Errors in a rate CSV of compare-cold or optimize-warm."""
        header, rows = parse_csv(text)
        if header != self.header:
            return [f"header {header} != {self.header}"]
        expected = self.inputs["rows"]
        if len(rows) != len(expected):
            return [f"{len(rows)} rows, expected {len(expected)}"]
        errors = []
        for index, (row, (source, distance)) in enumerate(zip(rows, expected)):
            where = f"row {index + 1} ({source}, {distance} km)"
            if row["source"] != source or float(row["distance_km"]) != distance:
                errors.append(f"{where}: got ({row['source']}, {row['distance_km']})")
                continue
            pairs = self.reference[(source, distance)]
            # optimize-warm keeps every pair whose reference rate ties the
            # best one, so an equally good choice is accepted.
            ref = pairs.get((float(row["mu1"]), float(row["mu2"])))
            problem = (
                f"chose (mu1, mu2) = ({row['mu1']}, {row['mu2']}), which is not "
                f"among the best reference pairs"
                if ref is None
                else _row_mismatch(row, ref, self.header)
            )
            problem = problem or _invariant_violation(row, self.true_y11(system, distance))
            if problem:
                errors.append(f"{where}: {problem}")
        return errors

    def check_calibration(self, result, scenario_text):
        """Errors in a calibrate-cold result and in the rates at its cutoff."""
        ref, inputs = self.reference, self.inputs
        errors = []
        if result.cutoff_km != float(ref["cutoff_km"]):
            errors.append(f"cutoff_km {result.cutoff_km} != reference {ref['cutoff_km']}")
        if str(result.in_window) != ref["in_window"]:
            errors.append(f"in_window {result.in_window} != reference {ref['in_window']}")
        if not _close(result.pulse_pairs, float(ref["pulse_pairs"]), PULSE_PAIRS_TOL):
            errors.append(f"pulse_pairs {result.pulse_pairs!r} != reference {ref['pulse_pairs']}")
        lo, hi = inputs["window"]
        if not (result.in_window and result.cutoff_km is not None and lo <= result.cutoff_km <= hi):
            errors.append(f"cutoff {result.cutoff_km} km is outside the window")
        # At the reference pulse count the rate is positive at the cutoff,
        # zero one grid step beyond it, and equal to the reference rows.
        scenario = mdiqkd.load_scenario(scenario_text, pulse_pairs=float(ref["pulse_pairs"]))
        cutoff = float(ref["cutoff_km"])
        distances = (cutoff, cutoff + inputs["step_km"])
        text = io.StringIO()
        mdiqkd.write_csv([mdiqkd.evaluate_point(scenario, d) for d in distances], text)
        _, rows = parse_csv(text.getvalue())
        for row, ref_row, distance, positive in zip(rows, self.points, distances, (True, False)):
            problem = (
                _row_mismatch(row, ref_row, self.header)
                or _invariant_violation(row, self.true_y11(scenario.system, distance))
            )
            if problem is None and (float(row["rate"]) > 0.0) != positive:
                problem = f"rate {row['rate']} contradicts the cutoff"
            if problem:
                errors.append(f"{distance} km: {problem}")
        return errors
