"""Command-line interface.

Subcommands:

* ``sweep``     rate versus distance for the configured source
* ``compare``   the four standard sources on one grid
* ``optimize``  best intensity pair per distance
* ``yields``    single-photon and vacuum yield diagnostics at one distance

Results are written as CSV (or key=value lines for ``yields``) to
``--out`` or stdout.  Exit codes: 0 on success, 2 for configuration
problems (including an unreadable ``--config`` or unwritable ``--out``,
both found before the run), 3 when a computation leaves the supported
domain.
"""

from __future__ import annotations

import argparse
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

_RUNS = {"sweep": run_sweep, "compare": compare_sources, "optimize": optimize_intensities}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mdiqkd",
        description="Key rates for measurement-device-independent QKD "
        "with superposition, coherent and single-photon sources.",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    def add_common(sub: argparse.ArgumentParser) -> None:
        sub.add_argument("--config", metavar="PATH", help="key=value config file")
        sub.add_argument("--out", metavar="PATH", help="output file (default stdout)")
        sub.add_argument(
            "--method",
            choices=["asymptotic", "standard", "chernoff"],
            help="override the statistical treatment of observed gains",
        )
        sub.add_argument(
            "--pulses",
            type=float,
            metavar="N",
            help="override the number of transmitted pulse pairs",
        )

    add_common(commands.add_parser("sweep", help="rate versus distance"))
    add_common(commands.add_parser("compare", help="all four standard sources"))
    add_common(commands.add_parser("optimize", help="best intensities per distance"))
    yields = commands.add_parser("yields", help="yield diagnostics at one distance")
    add_common(yields)
    yields.add_argument(
        "--distance-km", type=float, default=0.0, help="total link length"
    )
    return parser


def _load(args: argparse.Namespace) -> Scenario:
    text = None
    if args.config is not None:
        try:
            with open(args.config, "r", encoding="utf-8") as handle:
                text = handle.read()
        except OSError as exc:
            raise ConfigError(f"cannot read config {args.config!r}: {exc}") from None
    return load_scenario(text, method=args.method, pulse_pairs=args.pulses)


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
    args = build_parser().parse_args(argv)
    try:
        scenario = _load(args)
        if args.out is not None:
            _check_out(args.out)
        if args.command == "yields":
            report, write = _yields_report(scenario, args.distance_km), write_lines
        else:
            report, write = _RUNS[args.command](scenario), write_csv
        out = sys.stdout if args.out is None else args.out
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
