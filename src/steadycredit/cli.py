"""Command-line front end.

``analyze``, ``render`` and ``ssp`` run one ``report.analyze`` over the
window and print the whole report, a chart of it, or its ``ssf`` section.
``rates`` and ``ols`` print ``analyze``'s rate sample or its regression,
and ``cycles`` and ``gap`` their stage on the window's slice; each cuts the
series once. A handler returns each output's path and text; ``main`` opens
every file before it writes any, so a failing command, or two outputs on
one file, writes nothing. Each flag is declared once, as a parent parser
that every subcommand taking it inherits.

Exit codes: 0 success, 1 validation or data error (one-line diagnostic on
stderr), 2 usage error.
"""

from __future__ import annotations

import argparse
import contextlib
import os
import stat
import sys
from typing import Sequence

from . import cycles as cycles_mod
from . import ols as ols_mod
from . import report as report_mod
from .basel import GapConfig, GapRow, credit_gap
from .errors import SteadyCreditError
from .rates import (
    MODE_FORCE_BALANCE,
    MODE_PREFER_LOANS,
    RatePoint,
    RatesConfig,
    RateSeries,
    outside_window,
    window_rates,
)
from .series import CreditSeries, Quarter, Window, csv_text, emit_csv, parse_csv

NAMED_WINDOWS = {
    # the two canonical sub-periods: up to mid-2008 exclusive, and from
    # mid-2008 inclusive through mid-2012
    "pre2008": Window(Quarter(1996, 1), Quarter(2008, 2), True, False),
    "crisis": Window(Quarter(2008, 2), Quarter(2012, 2), True, True),
}

STDOUT = "-"


class UsageError(Exception):
    """Bad flag combination; maps to exit code 2."""


def _read_text(path: str) -> str:
    try:
        with open(path, encoding="utf-8", newline="") as fh:
            return fh.read()
    except UnicodeDecodeError as exc:
        raise SteadyCreditError(
            f"{path}: not UTF-8 text, {exc.reason} at byte offset {exc.start}") from None


def _write_outputs(outputs: list[tuple[str, str]]) -> None:
    """Write each text to its path (``-`` is stdout) once every file opens.

    Each file is first opened without truncation, and held open until the
    writes end so that a FIFO's reader sees one stream. If one cannot be
    opened, or two paths open one regular file (same device and inode), the
    files this call created are removed and nothing is written.
    """
    with contextlib.ExitStack() as held:
        created, first_path = [], {}
        try:
            for path in [path for path, _ in outputs if path != STDOUT]:
                new = not os.path.lexists(path)
                opened = os.fstat(held.enter_context(open(path, "a", encoding="utf-8")).fileno())
                created += [path] if new else []
                key = (opened.st_dev, opened.st_ino)
                if stat.S_ISREG(opened.st_mode) and key in first_path:
                    raise UsageError(f"outputs {first_path[key]} and {path} are one file")
                first_path[key] = path
        except (OSError, UsageError):
            for path in created:
                os.remove(path)
            raise
        for path, text in outputs:
            if path == STDOUT:
                sys.stdout.write(text)
            else:
                with open(path, "w", encoding="utf-8") as fh:
                    fh.write(text)


def _gap_cfg(args: argparse.Namespace) -> GapConfig:
    return GapConfig(lam=args.lam, gap_low=args.gap_low,
                     gap_high=args.gap_high, buffer_max=args.buffer_max)


def _load(args: argparse.Namespace) -> tuple[CreditSeries, Window]:
    """The input series and the window its flags give, by default the whole series.

    The flags are checked before the input is read, so a usage error exits 2
    whatever the file holds.
    """
    if args.named_window and (args.from_q or args.to_q):
        raise UsageError("--window excludes --from/--to")
    if bool(args.from_q) != bool(args.to_q):
        raise UsageError("--from and --to must be given together")
    if not args.from_q and (args.from_inclusive, args.to_inclusive) != (None, None):
        raise UsageError("--inclusive-from/--inclusive-to need --from and --to")
    series = parse_csv(_read_text(args.input))
    if args.from_q:
        # an inclusivity flag not given includes its quarter
        return series, Window(Quarter.parse(args.from_q), Quarter.parse(args.to_q),
                              args.from_inclusive is not False, args.to_inclusive is not False)
    whole = Window(series.first_quarter, series.last_quarter)
    return series, NAMED_WINDOWS.get(args.named_window, whole)


def _rates(args: argparse.Namespace) -> RateSeries:
    """The rate sample ``analyze`` takes for the same flags, from one cut of the series."""
    series, window = _load(args)
    return window_rates(series, series.slice(window), RatesConfig(f_mode=args.f_mode))


def _analyze(args: argparse.Namespace, series: CreditSeries,
             window: Window) -> report_mod.AnalysisReport:
    """The one analysis behind ``analyze``, ``render`` and ``ssp``.

    Commands without the gap flags analyze with the default gap settings.
    """
    gap_cfg = _gap_cfg(args) if "lam" in args else GapConfig()
    return report_mod.analyze(series, window, RatesConfig(f_mode=args.f_mode), gap_cfg,
                              args.sigma_ref)


def _cmd_validate(args: argparse.Namespace) -> list[tuple[str, str]]:
    series = parse_csv(_read_text(args.input))
    span = f"{series.first_quarter}..{series.last_quarter}"
    return [(STDOUT, f"OK: {len(series)} observations, {span}\n")]


def _cmd_rates(args: argparse.Namespace) -> list[tuple[str, str]]:
    return [(args.out, csv_text(RatePoint._fields, _rates(args).points))]


def _cmd_ols(args: argparse.Namespace) -> list[tuple[str, str]]:
    rates = _rates(args)
    return [(args.json_path, report_mod.dump_json(ols_mod.fit(rates.d_values(), rates.f_values())))]


def _cmd_ssp(args: argparse.Namespace) -> list[tuple[str, str]]:
    rep = _analyze(args, *_load(args))
    for stage, message in rep.errors:
        if stage in ("ssp-least-squares", "ssp-irr-root"):
            raise SteadyCreditError(message)
    return [(args.json_path, report_mod.dump_json(report_mod.to_json_dict(rep)["ssf"]))]


def _cmd_cycles(args: argparse.Namespace) -> list[tuple[str, str]]:
    series, window = _load(args)
    series = series.slice(window)
    values, quarters = series.tcu_values(), series.quarters()
    rep = cycles_mod.cycle_stats(values, quarters)
    outputs = [(args.json_path, report_mod.dump_json(rep))]
    if args.csv:
        outputs.insert(0, (args.csv, cycles_mod.overlays_to_csv(rep, values, quarters)))
    return outputs


def _cmd_gap(args: argparse.Namespace) -> list[tuple[str, str]]:
    series, window = _load(args)
    gap = credit_gap(series.slice(window), _gap_cfg(args))
    return [(args.out, csv_text(GapRow._fields, gap.rows))]


def _cmd_analyze(args: argparse.Namespace) -> list[tuple[str, str]]:
    return [(args.json_path, report_mod.to_json(_analyze(args, *_load(args))))]


def _cmd_simulate(args: argparse.Namespace) -> list[tuple[str, str]]:
    from . import synth  # loaded for this command only
    scenario = synth.parse_scenario(_read_text(args.scenario), seed=args.seed)
    return [(args.out, emit_csv(synth.generate(scenario)[0]))]


def _cmd_render(args: argparse.Namespace) -> list[tuple[str, str]]:
    series, window = _load(args)
    rep = _analyze(args, series, window)
    # only a scatter that can be drawn takes the rates outside the window, so that
    # a bad one there never replaces the error analyze or the scatter would give
    drawn = args.kind == report_mod.KIND_SCATTER and rep.ssp_ls is not None
    out = outside_window(series, window, RatesConfig(f_mode=args.f_mode)) if drawn else ()
    return [(args.out, report_mod.render_svg(rep, args.kind, out))]


def _flag(*names: str, **kwargs) -> argparse.ArgumentParser:
    """Parent parser declaring one flag for the subcommands that inherit it."""
    parent = argparse.ArgumentParser(add_help=False)
    parent.add_argument(*names, **kwargs)
    return parent


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="steadycredit",
        description="Quarterly credit-register analytics: rates, regression, "
                    "steady-state estimation, cycles, and the credit-to-GDP gap.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    input_ = _flag("--input", required=True)
    window = argparse.ArgumentParser(add_help=False)
    window.add_argument("--window", dest="named_window", choices=sorted(NAMED_WINDOWS),
                        help="named analysis window shortcut")
    window.add_argument("--from", dest="from_q", metavar="YYYY-Qn",
                        help="window start quarter")
    window.add_argument("--to", dest="to_q", metavar="YYYY-Qn", help="window end quarter")
    window.add_argument("--inclusive-from", dest="from_inclusive",
                        action=argparse.BooleanOptionalAction,
                        help="include the start quarter (default: include)")
    window.add_argument("--inclusive-to", dest="to_inclusive",
                        action=argparse.BooleanOptionalAction,
                        help="include the end quarter (default: include)")
    f_mode = _flag("--f-mode", choices=[MODE_PREFER_LOANS, MODE_FORCE_BALANCE],
                   default=MODE_PREFER_LOANS)
    sigma_ref = _flag("--sigma-ref", type=float, default=None,
                      help="reference residual scale for the chi-squared statistic")
    gap_default = GapConfig()
    gap = argparse.ArgumentParser(add_help=False)
    gap.add_argument("--lambda", dest="lam", type=float, default=gap_default.lam)
    gap.add_argument("--gap-low", type=float, default=gap_default.gap_low)
    gap.add_argument("--gap-high", type=float, default=gap_default.gap_high)
    gap.add_argument("--buffer-max", type=float, default=gap_default.buffer_max)
    json_ = _flag("--json", dest="json_path", nargs="?", const=STDOUT, default=STDOUT,
                  metavar="PATH", help="write JSON to PATH (default: stdout)")
    out = _flag("--out", default=STDOUT)

    def command(name, handler, help_text, *parents):
        sub.add_parser(name, help=help_text, parents=parents).set_defaults(handler=handler)

    command("validate", _cmd_validate, "parse and validate a series CSV", input_)
    command("rates", _cmd_rates, "emit per-interval default and growth rates as CSV",
            input_, window, f_mode, out)
    command("ols", _cmd_ols, "regression of growth rate on default rate",
            input_, window, f_mode, json_)
    command("ssp", _cmd_ssp, "steady-state parameter estimates",
            input_, window, f_mode, sigma_ref, json_)
    command("cycles", _cmd_cycles, "cycle statistics of the credit stock",
            input_, window,
            _flag("--csv", metavar="PATH", help="also write per-point overlays CSV"), json_)
    command("gap", _cmd_gap, "credit-to-GDP gap and buffer add-on CSV",
            input_, window, gap, out)
    command("analyze", _cmd_analyze, "full analysis report as JSON",
            input_, window, f_mode, sigma_ref, gap, json_)
    command("simulate", _cmd_simulate, "generate a synthetic series CSV from a scenario",
            _flag("--scenario", required=True, help="key=value scenario file"),
            _flag("--seed", type=int, required=True), out)
    command("render", _cmd_render, "render an SVG chart of an analysis window",
            input_, window, f_mode, sigma_ref,
            _flag("--kind", choices=[report_mod.KIND_TIME_PANEL, report_mod.KIND_SCATTER],
                  required=True),
            out)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        _write_outputs(args.handler(args))
        return 0
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except (SteadyCreditError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
