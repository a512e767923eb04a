"""Key-rate benchmark of mdiqkd.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload {compare-cold,optimize-warm,calibrate-cold}
                             [--seed N] [--seconds S] [--trace 0|1]

Runs fresh worker interpreters one at a time for about ``--seconds``
(at least three), checks every output, and prints as its last
stdout line one JSON object with ``correct``, ``attempted``, ``failed``
and ``metrics``.  With ``--trace 0`` the metrics are the end-to-end
medians; with ``--trace 1`` traced and untraced workers alternate and
the metrics are per layer.  The line before it holds the machine record,
sample counts and quartiles.  Exits 2 without a result when the checkout
has no ``src/mdiqkd`` or no run produced a measurement.
"""

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import spans  # noqa: E402
import workloads  # noqa: E402

WORK_DIR = ".perfbench"
MIN_RUNS = 3
# A whole invocation must end within 180 s.
DEADLINE_S = 165.0


def _median(values):
    return statistics.median(values) if values else None


def _quartiles(values):
    if len(values) < 2:
        return None
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return [q1, q2, q3]


def git_commit():
    if not os.path.exists(".git"):
        return None
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], capture_output=True, text=True, timeout=10, check=True
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() or None


def src_digest():
    digest = hashlib.sha256()
    for root, dirs, files in os.walk("src"):
        dirs[:] = sorted(d for d in dirs if d != "__pycache__")
        for name in sorted(f for f in files if f.endswith(".py")):
            path = os.path.join(root, name)
            digest.update(path.encode() + b"\0")
            with open(path, "rb") as handle:
                digest.update(handle.read())
    return digest.hexdigest()


def spawn(inputs, trace, timeout_s, machine=False, trace_out=None):
    """Run one worker interpreter and return its result record."""
    tmp = tempfile.mkdtemp(dir=WORK_DIR)
    spec = os.path.join(tmp, "spec.json")
    with open(spec, "w", encoding="utf-8") as handle:
        json.dump(
            {"inputs": inputs, "tmp": tmp, "trace": trace, "machine": machine, "trace_out": trace_out},
            handle,
        )
    t_spawn = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "worker.py"), spec],
            capture_output=True,
            text=True,
            timeout=timeout_s,
        )
        lines = proc.stdout.strip().splitlines()
        result = json.loads(lines[-1]) if lines else {}
        if proc.returncode != 0 or "ok" not in result:
            tail = " | ".join(proc.stderr.strip().splitlines()[-3:])
            result = {"ok": False, "error": f"worker exited with {proc.returncode}: {tail}"}
    except subprocess.TimeoutExpired:
        result = {"ok": False, "error": f"timed out after {timeout_s:.0f} s"}
    except json.JSONDecodeError:
        result = {"ok": False, "error": "worker printed no result"}
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    if "t_ready" in result:
        result["setup_s"] = result["t_ready"] - t_spawn
    result["trace_run"] = trace
    result["elapsed_s"] = time.monotonic() - t_spawn
    return result


def collect(inputs, seconds, trace, trace_out):
    """Run workers until ``seconds`` have passed; alternate traced ones."""
    os.makedirs(WORK_DIR, exist_ok=True)
    start = time.monotonic()
    runs = []
    while True:
        elapsed = time.monotonic() - start
        plain = sum(not r["trace_run"] for r in runs)
        traced = len(runs) - plain
        enough = plain >= MIN_RUNS and (traced >= 1 or not trace)
        # Stop when another worker would end nearer past ``seconds`` than
        # before it, or could miss the deadline.
        typical = _median([r["elapsed_s"] for r in runs]) or 0.0
        longest = max((r["elapsed_s"] for r in runs), default=0.0)
        if (enough and elapsed + typical / 2 > seconds) or elapsed + 1.5 * longest > DEADLINE_S:
            break
        trace_this = bool(trace) and traced < plain
        result = spawn(
            inputs,
            trace_this,
            timeout_s=max(1.0, DEADLINE_S - elapsed),
            machine=not runs,
            trace_out=trace_out if trace_this and traced == 0 else None,
        )
        runs.append(result)
    # Same code and seed must give byte-identical output.
    digests = [r["digest"] for r in runs if r["ok"]]
    for r in runs:
        if r["ok"] and r["digest"] != digests[0]:
            r["ok"] = False
            r["error"] = "output differs from the first run's bytes"
    return runs


def end_to_end(plain):
    measured = [r for r in plain if "wall_s" in r]
    samples = {
        "wall_s": [v for r in measured for v in r["wall_s"]],
        "cpu_s": [v for r in measured for v in r["cpu_s"]],
        "setup_s": [r["setup_s"] for r in measured],
        "peak_rss_mb": [r["peak_rss_mb"] for r in measured],
    }
    units = {"wall_s": "s", "cpu_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
    return samples, units


def per_layer(runs):
    """Per-layer metrics from the traced runs, with ``None`` kept."""
    plain_wall = [v for r in runs if not r["trace_run"] and "wall_s" in r for v in r["wall_s"]]
    traced = [r for r in runs if r["trace_run"] and "trace" in r and "wall_s" in r]
    if not traced or not plain_wall:
        return None
    first = traced[0]["trace"]["layers"]
    values, units = {}, {}

    def layer_median(name, field):
        got = [r["trace"]["layers"][name][field] for r in traced if r["trace"]["layers"][name]]
        return _median(got)

    for layer, _, _ in spans.LAYERS:
        entry = first[layer]
        values[f"{layer}.calls"] = entry["calls"] if entry else None
        units[f"{layer}.calls"] = "count"
        values[f"{layer}.self_s"] = layer_median(layer, "self_s")
        units[f"{layer}.self_s"] = "s"
        if layer in spans.COUNT_DISTINCT:
            values[f"{layer}.distinct_frac"] = entry["distinct_frac"] if entry else None
            units[f"{layer}.distinct_frac"] = "ratio"
        if layer in spans.COUNT_BYTES:
            values[f"{layer}.bytes"] = entry["bytes"] if entry else None
            units[f"{layer}.bytes"] = "bytes"
    points, tables = values["sweep.evaluate_point.calls"], values["bsm.yield_tables.calls"]
    values["sweep.points_per_table"] = points / tables if points and tables else None
    units["sweep.points_per_table"] = "ratio"
    values["trace.untraced_s"] = _median([r["trace"]["untraced_s"] for r in traced])
    units["trace.untraced_s"] = "s"
    traced_wall = _median([v for r in traced for v in r["wall_s"]])
    values["trace.overhead_frac"] = (traced_wall - _median(plain_wall)) / _median(plain_wall)
    units["trace.overhead_frac"] = "ratio"
    values["failed_frac"] = sum(not r["ok"] for r in runs) / len(runs)
    units["failed_frac"] = "ratio"
    repeat = all(_counts(r) == _counts(traced[0]) for r in traced)
    return values, units, repeat


def _counts(run):
    return {
        name: (entry["calls"], entry.get("bytes")) if entry else None
        for name, entry in run["trace"]["layers"].items()
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=60.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join("src", "mdiqkd", "__init__.py")):
        print("error: no src/mdiqkd here; run from the root of an mdiqkd checkout", file=sys.stderr)
        return 2

    inputs = workloads.make_inputs(args.workload, args.seed)
    trace_out = os.path.join(WORK_DIR, f"spans-{args.workload}.csv.gz")
    runs = collect(inputs, args.seconds, args.trace, trace_out)
    for r in runs:
        if not r["ok"]:
            print(f"run failed: {r['error']}", file=sys.stderr)
    plain = [r for r in runs if not r["trace_run"]]
    samples, units = end_to_end(plain)
    if not samples["wall_s"]:
        print("error: no run produced a measurement", file=sys.stderr)
        return 2

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "variant": inputs["variant"],
        "machine": dict(
            next((r["machine"] for r in runs if "machine" in r), {}),
            git_commit=git_commit(),
            src_sha256=src_digest(),
        ),
        "samples": {name: len(v) for name, v in samples.items()},
        "quartiles": {name: _quartiles(v) for name, v in samples.items()},
    }
    if args.trace:
        layered = per_layer(runs)
        if layered is None:
            print("error: no traced run produced a measurement", file=sys.stderr)
            return 2
        values, units, repeat = layered
        record["per_layer"] = values
        record["counts_repeat"] = repeat
        record["spans_file"] = trace_out
        # The result line carries numbers only: a layer that is missing
        # or never ran reads 0 there and null in the record above.
        metrics = {
            name: {"value": 0 if value is None else value, "unit": units[name]}
            for name, value in values.items()
        }
    else:
        metrics = {
            name: {"value": _median(values), "unit": units[name]}
            for name, values in samples.items()
        }
    failed = sum(not r["ok"] for r in runs)
    print(json.dumps(record))
    print(json.dumps({"correct": failed == 0, "attempted": len(runs), "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
