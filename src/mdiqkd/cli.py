"""Command-line interface; ``USAGE`` lists the commands and options.

Results are written as CSV (or key=value lines for ``yields``) to
``--out`` or stdout.  Exit codes: 0 on success, 2 for usage and
configuration problems (including an unreadable ``--config`` or
unwritable ``--out``, both found before the run), 3 when a computation
leaves the supported domain.
"""

from __future__ import annotations

import getopt
import os
import sys

from .bsm import DetectorParams, yield_tables
from .config import Scenario, load_scenario
from .errors import ConfigError, CutoffError, DomainError
from .rates import true_single_photon_quantities
from .sweep import (
    compare_sources,
    optimize_intensities,
    run_sweep,
    write_csv,
    write_lines,
)

USAGE = """\
usage: mdiqkd <command> [--config PATH] [--out PATH]
                        [--method {asymptotic,standard,chernoff}]
                        [--pulses N] [--distance-km KM]

commands:
  sweep             rate versus distance for the configured source (CSV)
  compare           the four standard source setups on one grid (CSV)
  optimize          best signal/decoy intensity pair per distance (CSV)
  yields            single-photon and vacuum yield diagnostics at one
                    distance (key = value lines)

options:
  --config PATH     key=value config file
  --out PATH        output file (default stdout)
  --method METHOD   override the statistical treatment of observed gains
                    (the key finite_key.method)
  --pulses N        override the pulse pairs sent in each (intensity
                    pair, basis) setting (the key finite_key.pulse_pairs)
  --distance-km KM  total link length (yields only; default 0)
  -h, --help        print this message
"""

_RUNS = {"sweep": run_sweep, "compare": compare_sources, "optimize": optimize_intensities}
_COMMANDS = (*_RUNS, "yields")
# getopt's long options: a trailing "=" takes a value.
_OPTIONS = ["help", "config=", "out=", "method=", "pulses="]


def _parse(argv: list[str]) -> tuple[str, dict[str, str]] | None:
    """The command and its options by full name, the last of a repeated
    option winning; None when help was asked for."""
    command = argv[0] if argv else None
    if command in ("-h", "--help"):
        return None
    if command not in _COMMANDS:
        problem = "missing command" if command is None else f"unknown command {command!r}"
        raise ConfigError(f"{problem} (choose from {', '.join(_COMMANDS)})")
    longopts = _OPTIONS + ["distance-km="] if command == "yields" else _OPTIONS
    try:
        pairs, rest = getopt.getopt(argv[1:], "h", longopts)
    except getopt.GetoptError as exc:
        raise ConfigError(str(exc)) from None
    if rest:
        raise ConfigError(f"unexpected argument {rest[0]!r}")
    options = dict(pairs)
    if "-h" in options or "--help" in options:
        return None
    return command, options


def _number(options: dict[str, str], name: str, default: float | None = None) -> float | None:
    value = options.get(name)
    if value is None:
        return default
    try:
        return float(value)
    except ValueError:
        raise ConfigError(f"option {name} expects a number, got {value!r}") from None


def _load(path: str | None, method: str | None, pulses: float | None) -> Scenario:
    text = None
    if path is not None:
        try:
            with open(path, "rb") as handle:
                text = handle.read().decode("utf-8")
        except OSError as exc:
            raise ConfigError(f"cannot read config {path!r}: {exc}") from None
        except UnicodeDecodeError as exc:
            raise ConfigError(
                f"cannot read config {path!r}: not UTF-8 at byte {exc.start}"
            ) from None
    return load_scenario(text, method=method, pulse_pairs=pulses)


def _check_out(path: str) -> None:
    """Fail before the run when ``path`` cannot be opened for writing.
    The check truncates nothing, and removes a file it had to create, so
    a run that fails later leaves no file behind that was not there."""
    existed = os.path.lexists(path)
    try:
        open(path, "a").close()
    except OSError as exc:
        raise ConfigError(f"cannot write output {path!r}: {exc}") from None
    if not existed:
        os.remove(path)


def _yields_report(scenario: Scenario, distance_km: float) -> list[str]:
    system = scenario.system
    eta = system.efficiency_at(distance_km)
    table = yield_tables(DetectorParams(eta, system.dark_count), scenario.cutoff)
    truth = true_single_photon_quantities(table, system.misalignment)
    vacuum_yield = table.contract((1.0,), (1.0,))[0]

    def fmt(value: float | None) -> str:
        return format(float("nan") if value is None else value, ".17g")

    return [
        f"distance_km = {fmt(distance_km)}",
        f"overall_efficiency = {fmt(eta)}",
        f"dark_count = {fmt(system.dark_count)}",
        f"cutoff = {scenario.cutoff}",
        f"y11_z = {fmt(truth.y11_z)}",
        f"e11_z = {fmt(truth.e11_z)}",
        f"y11_x = {fmt(truth.y11_x)}",
        f"e11_x = {fmt(truth.e11_x)}",
        f"vacuum_yield = {fmt(vacuum_yield)}",
    ]


def main(argv: list[str] | None = None) -> int:
    try:
        parsed = _parse(sys.argv[1:] if argv is None else argv)
        if parsed is None:
            sys.stdout.write(USAGE)
            return 0
        command, options = parsed
        pulses = _number(options, "--pulses")
        distance_km = _number(options, "--distance-km", 0.0)
        out = options.get("--out")
        scenario = _load(options.get("--config"), options.get("--method"), pulses)
        if out is not None:
            _check_out(out)
        if command == "yields":
            report, write = _yields_report(scenario, distance_km), write_lines
        else:
            report, write = _RUNS[command](scenario), write_csv
        out = sys.stdout if out is None else out
        try:
            write(report, out)
        except OSError as exc:
            name = getattr(out, "name", out)
            raise ConfigError(f"cannot write output {name!r}: {exc}") from None
        return 0
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (CutoffError, DomainError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
