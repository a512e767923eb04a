"""One benchmark run in a fresh interpreter.

Usage: python3 perfbench/worker.py SPEC.json

SPEC names the workload inputs, a scratch directory and whether to
trace.  The worker imports ``mdiqkd`` from ``src/`` of the working
directory, sets the workload up, runs and checks it, and prints one JSON
object on its last stdout line.  Times come from ``time.monotonic`` (wall,
comparable with the parent's clock) and ``time.process_time`` (user plus
system CPU of every thread).
"""

import contextlib
import hashlib
import json
import os
import resource
import sys
import time
import traceback

SRC = os.path.abspath("src")
sys.path.insert(0, SRC)

import mdiqkd  # noqa: E402
import mdiqkd.cli  # noqa: E402

import check  # noqa: E402
import spans  # noqa: E402

# Timed optimize-warm passes per worker, after one untimed warm-up pass.
OPTIMIZE_PASSES = 4


class CheckFailed(Exception):
    pass


def _require(errors):
    if errors:
        raise CheckFailed("; ".join(errors[:5]) + (f" (+{len(errors) - 5} more)" if len(errors) > 5 else ""))


def _read(path):
    with open(path, "rb") as handle:
        return handle.read()


def _clock():
    return time.monotonic(), time.process_time()


class Untraced:
    """Stands in for ``spans.Tracer`` in runs that are not traced."""

    def install(self):
        pass

    def uninstall(self):
        pass

    def paused(self):
        return contextlib.nullcontext()


def compare_cold(inputs, tmp, tracer, result):
    config = os.path.join(tmp, "compare.cfg")
    with open(config, "w", encoding="ascii") as handle:
        handle.write(inputs["config"])
    out = os.path.join(tmp, "compare.csv")
    checker = check.Checker(inputs)
    system = mdiqkd.load_scenario(inputs["config"]).system
    tracer.install()
    result["t_ready"], cpu0 = _clock()
    code = mdiqkd.cli.main(["compare", "--config", config, "--out", out])
    tracer.uninstall()
    if code != 0:
        raise CheckFailed(f"mdiqkd compare exited with {code}")
    data = _read(out)
    errors = checker.check_rows(data.decode("ascii"), system)
    t1, cpu1 = _clock()
    result.update(wall_s=[t1 - result["t_ready"]], cpu_s=[cpu1 - cpu0], digest=hashlib.sha256(data).hexdigest())
    _require(errors)


def optimize_warm(inputs, tmp, tracer, result):
    checker = check.Checker(inputs)
    out = os.path.join(tmp, "optimize.csv")
    tracer.install()
    scenarios = [mdiqkd.load_scenario(text) for text in inputs["configs"]]
    system = scenarios[0].system
    errors = []

    def one_pass():
        points = [p for s in scenarios for p in mdiqkd.optimize_intensities(s)]
        mdiqkd.write_csv(points, out)
        data = _read(out)
        with tracer.paused():
            errors.extend(checker.check_rows(data.decode("ascii"), system))
        return data

    first = one_pass()
    result["t_ready"] = time.monotonic()
    result.update(wall_s=[], cpu_s=[], digest=hashlib.sha256(first).hexdigest())
    for _ in range(OPTIMIZE_PASSES):
        t0, cpu0 = _clock()
        if one_pass() != first:
            errors.append("a timed pass wrote different bytes than the warm-up pass")
        t1, cpu1 = _clock()
        result["wall_s"].append(t1 - t0)
        result["cpu_s"].append(cpu1 - cpu0)
    tracer.uninstall()
    _require(errors)


def calibrate_cold(inputs, tmp, tracer, result):
    checker = check.Checker(inputs)
    out = os.path.join(tmp, "calibrate.csv")
    tracer.install()
    scenario = mdiqkd.load_scenario(inputs["config"])
    result["t_ready"], cpu0 = _clock()
    found = mdiqkd.calibrate_pulse_pairs(
        scenario,
        window=tuple(inputs["window"]),
        start=inputs["start"],
        step_km=inputs["step_km"],
        max_km=inputs["max_km"],
    )
    tracer.uninstall()
    data = f"pulse_pairs,cutoff_km,in_window\n{found.pulse_pairs!r},{found.cutoff_km!r},{found.in_window}\n".encode()
    with open(out, "wb") as handle:
        handle.write(data)
    errors = checker.check_calibration(found, inputs["config"])
    t1, cpu1 = _clock()
    result.update(wall_s=[t1 - result["t_ready"]], cpu_s=[cpu1 - cpu0], digest=hashlib.sha256(data).hexdigest())
    _require(errors)


RUNNERS = {
    "compare-cold": compare_cold,
    "optimize-warm": optimize_warm,
    "calibrate-cold": calibrate_cold,
}


def machine():
    """Versions and BLAS threading of this interpreter."""
    import ctypes
    import numpy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    with open("/proc/self/maps", encoding="ascii", errors="replace") as handle:
        libraries = {line.split()[-1] for line in handle if "blas" in line.lower() and "/" in line}
    for path in sorted(libraries):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(lib, symbol):
                getter = getattr(lib, symbol)
                getter.restype = ctypes.c_int
                getter.argtypes = []
                threads = getter()
                break
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": threads,
    }


def main():
    with open(sys.argv[1], encoding="utf-8") as handle:
        spec = json.load(handle)
    result = {"ok": False}
    tracer = spans.Tracer() if spec["trace"] else Untraced()
    try:
        if not mdiqkd.__file__.startswith(SRC + os.sep):
            raise CheckFailed(f"mdiqkd was imported from {mdiqkd.__file__}, not from {SRC}")
        RUNNERS[spec["inputs"]["workload"]](spec["inputs"], spec["tmp"], tracer, result)
        result["ok"] = True
    except CheckFailed as exc:
        result["error"] = f"check failed: {exc}"
    except Exception:  # the run is counted as failed; the parent reports why
        result["error"] = traceback.format_exc(limit=5)
    tracer.uninstall()
    if spec["trace"]:
        result["trace"] = tracer.summary()
        if spec.get("trace_out"):
            tracer.write(spec["trace_out"])
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if spec.get("machine"):
        try:
            result["machine"] = machine()
        except Exception as exc:  # the record is informative; the run stands
            result["machine"] = {"error": repr(exc)}
    print(json.dumps(result))


if __name__ == "__main__":
    main()
