"""Command line surface: steady, trajectory, sweep, contour, validate.

Every command reads an optional config file, applies --set overrides,
and writes CSV or JSON to --out (stdout by default). Exit codes: 0 on
success, 1 for configuration and usage problems, 2 for numerical
failures, 3 when a validation check fails.
"""

from __future__ import annotations

import argparse
import dataclasses
import itertools
import json
import math
import pathlib
import re
import sys
import warnings

from . import gaussian, validation
from .errors import ConfigError, SimulationError
from .gaussian import StationaryMoments
from .hilbert import expectation, number_op
from .models import SystemParams, reduced_feedback_liouvillian
from .scenario import ScenarioConfig, default_config, load_config, parse_config
from .sme import ensemble_mean, run_trajectory, steady_state

SWEEPABLE_KEYS = ("g", "eta", "gamma_h", "chi", "phi", "nu")

# largest n_trunc whose steady report adds a kernel solve; raising it changes
# the report for every larger truncation, the default n_trunc = 160 included
KERNEL_CHECK_MAX_TRUNC = 40

CONTOUR_POINTS = 256

# --v ... --values: no other option starts with --v
_VALUES_PREFIXES = frozenset("--values"[:n] for n in range(3, 9))


def _cell(value) -> str:
    """One CSV cell other than a Python float, which _csv_lines formats inline.

    Strings are quoted where needed; numpy floats keep full round-trip
    precision, as Python floats do.
    """
    # a sweep's failed or unstable rows hold None, and every sweep row a bool and a str
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, str):
        if "," in value or '"' in value or "\n" in value:
            return '"' + value.replace('"', '""') + '"'
        return value
    if isinstance(value, int):
        return str(value)
    return format(float(value), ".17g")


def _csv_lines(header, rows):
    """A CSV table as text lines: the header, then each row as it is drawn from rows."""
    yield ",".join(header) + "\n"
    for row in rows:
        # nearly every cell is a Python float, so it skips _cell's call
        yield ",".join([format(v, ".17g") if type(v) is float else _cell(v) for v in row]) + "\n"


def _json_text(payload) -> str:
    return json.dumps(payload, indent=2, allow_nan=False) + "\n"


def _write(chunks, path) -> None:
    """Write each text chunk to stdout, or to the file at path, as it comes.

    The file is opened before the first chunk is drawn, so a lazy table
    computes no row for a path that cannot be written.
    """
    if path is None:
        sys.stdout.writelines(chunks)
        return
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.writelines(chunks)
    except OSError as err:
        raise ConfigError(f"cannot write --out {path}: {err.strerror or err}") from err


def _json_table(header, rows) -> dict:
    # JSON has no NaN or Infinity (RFC 8259), so a non-finite cell is null
    finite = lambda v: None if isinstance(v, float) and not math.isfinite(v) else v
    return {"columns": list(header), "rows": [list(map(finite, row)) for row in rows]}


def _table_chunks(header, rows, fmt: str):
    if fmt == "json":
        return (_json_text(_json_table(header, rows)),)
    return _csv_lines(header, rows)


def _load_scenario(args) -> ScenarioConfig:
    cfg = load_config(args.config) if args.config else default_config()
    if args.set:
        cfg = parse_config("\n".join(args.set), base=cfg)
    if args.seed is not None:
        cfg = cfg.replace(seed=args.seed)
    return cfg


def cmd_steady(cfg: ScenarioConfig, out, fmt: str) -> int:
    """Closed-form stationary report, kernel-checked at small dimensions."""
    params = cfg.system_params()
    bp = gaussian.bath_params(params)
    stable = gaussian.stability(params)
    pairs = [
        ("Gamma", bp.Gamma),
        ("N", bp.N),
        ("M_re", bp.M.real),
        ("M_im", bp.M.imag),
        ("physical", bp.is_physical),
        ("stable", stable),
    ]
    if not stable:
        pairs.append(("note", "unstable feedback sign: no stationary moments"))
    else:
        moments = gaussian._stationary_moments(params, bp)
        ellipse = gaussian.wigner_covariance(moments)
        g_opt, n_min = gaussian.optimal_gain(params)
        pairs += [
            ("zeta", moments.zeta),
            ("mu_re", moments.mu.real),
            ("mu_im", moments.mu.imag),
            ("sigma_xx", ellipse.sigma_xx),
            ("sigma_pp", ellipse.sigma_pp),
            ("sigma_xp", ellipse.sigma_xp),
            ("g_opt", g_opt),
            ("n_min", n_min),
        ]
        if cfg.n_trunc <= KERNEL_CHECK_MAX_TRUNC:
            L = reduced_feedback_liouvillian(params, cfg.basis_spec())
            rho = steady_state(L)
            kernel_n = expectation(rho, number_op(cfg.basis_spec())).real
            pairs += [
                ("kernel_n", kernel_n),
                ("kernel_rel_dev", abs(kernel_n - moments.zeta) / max(moments.zeta, 1e-12)),
            ]
        else:
            pairs.append(("kernel_check", f"skipped: n_trunc > {KERNEL_CHECK_MAX_TRUNC}"))
    chunks = (_json_text(dict(pairs)),) if fmt == "json" else _csv_lines(("key", "value"), pairs)
    _write(chunks, out)
    return 0 if stable else 2


def _summary_path(path: str) -> str:
    """a.csv -> a_summary.csv, dir.v2/traj -> dir.v2/traj_summary."""
    p = pathlib.Path(path)
    return str(p.with_name(f"{p.stem}_summary{p.suffix}"))


def cmd_trajectory(cfg: ScenarioConfig, out, fmt: str) -> int:
    """Conditioned trajectories plus, for n_traj >= 2, an ensemble summary."""
    params = cfg.system_params()
    spec = cfg.basis_spec()
    icfg = cfg.integrator_config()

    records = []
    for index in range(cfg.n_traj):
        try:
            records.append(run_trajectory(params, spec, icfg, traj_index=index))
        except SimulationError as err:
            raise SimulationError(f"trajectory {index}: {err}") from err

    # rows are drawn lazily, one record at a time, from plain Python floats
    # (tolist), the cheapest cells to format
    header = ("traj", "time", "x_cond", "p_cond", "n_cond", "current")
    rows = itertools.chain.from_iterable(
        zip(itertools.repeat(index),
            *(c.tolist() for c in (rec.times, rec.x_cond, rec.p_cond, rec.n_cond, rec.current)))
        for index, rec in enumerate(records)
    )
    # for n_traj >= 2, the ensemble summary
    summary = None
    if cfg.n_traj >= 2:
        ens = ensemble_mean(records)
        columns = (ens.times, ens.x_mean, ens.x_se, ens.p_mean, ens.p_se, ens.n_mean, ens.n_se)
        summary = (("time", "x_mean", "x_se", "p_mean", "p_se", "n_mean", "n_se"),
                   zip(*(c.tolist() for c in columns)))

    if fmt == "json":
        payload = _json_table(header, rows)
        payload["ensemble"] = None if summary is None else _json_table(*summary)
        _write((_json_text(payload),), out)
    elif out is None:
        # on stdout, a blank line separates the two tables
        chunks = _csv_lines(header, rows)
        if summary is not None:
            chunks = itertools.chain(chunks, ("\n",), _csv_lines(*summary))
        _write(chunks, None)
    else:
        _write(_csv_lines(header, rows), out)
        if summary is not None:
            _write(_csv_lines(*summary), _summary_path(out))
    return 0


def cmd_sweep(cfg: ScenarioConfig, key: str, values, out, fmt: str) -> int:
    """Closed-form stationary row per SystemParams value; bad rows are flagged, not fatal."""
    header = (key, "N", "zeta", "abs_mu", "stable", "error")
    # each row builds SystemParams from these fields, so it runs every check
    fields = dataclasses.asdict(cfg.system_params())

    def one(value):
        fields[key] = value
        try:
            params = SystemParams(**fields)
            bp = gaussian.bath_params(params)
            if gaussian.stability(params):
                moments = gaussian._stationary_moments(params, bp)
                return (value, bp.N, moments.zeta, abs(moments.mu), True, "")
            return (value, bp.N, None, None, False, "")
        except (SimulationError, ValueError) as err:
            return (value, None, None, None, None, str(err))

    # rows never raise, so in CSV each is computed, formatted and written
    # before the next one exists
    _write(_table_chunks(header, map(one, values), fmt), out)
    return 0


def cmd_contour(cfg: ScenarioConfig, out, fmt: str) -> int:
    """Phase-space uncertainty contours: initial thermal, stationary, ground."""
    params = cfg.system_params()
    moments = gaussian.stationary_moments(params)
    contours = (
        ("thermal", StationaryMoments(zeta=params.n0, mu=0.0)),
        ("feedback", moments),
        ("ground", StationaryMoments(zeta=0.0, mu=0.0)),
    )
    header = ("label", "x", "p")
    rows = []
    for label, m in contours:
        ellipse = gaussian.wigner_covariance(m)
        for x, p in gaussian.contour_polyline(ellipse, CONTOUR_POINTS):
            rows.append((label, x, p))
    _write(_table_chunks(header, rows, fmt), out)
    return 0


def cmd_validate(level: str, out, fmt: str) -> int:
    """Run the self-check registry; timings go to stdout, never to --out."""
    if out is not None:
        # create the report before any check runs, so an unwritable path
        # fails at once instead of after the whole run
        _write((), out)
    results = validation.run_checks(level)
    for res in results:
        status = "PASS" if res.passed else "FAIL"
        sys.stdout.write(f"{res.name:<26s} {status} {res.seconds:10.2f} s  {res.detail}\n")
    n_pass = sum(1 for res in results if res.passed)
    sys.stdout.write(f"{level}: {n_pass}/{len(results)} checks passed\n")
    if out is not None:
        if fmt == "json":
            payload = {
                "level": level,
                "passed": n_pass == len(results),
                "checks": [
                    {"name": res.name, "passed": res.passed, "detail": res.detail}
                    for res in results
                ],
            }
            _write((_json_text(payload),), out)
        else:
            header = ("name", "passed", "detail")
            rows = [(res.name, res.passed, res.detail) for res in results]
            _write(_csv_lines(header, rows), out)
    return 0 if n_pass == len(results) else 3


def _parse_values(text: str):
    # scanned entry by entry, so the list of split tokens is never held
    values = []
    for match in re.finditer(r"[^,]+", text):
        token = match.group().strip()
        if not token:
            continue
        try:
            values.append(float(token))
        except ValueError as err:
            raise ConfigError(f"--values entry {token!r} is not a number") from err
    if not values:
        raise ConfigError("--values must list at least one number")
    return values


def _add_common(sub) -> None:
    sub.add_argument("--config", help="scenario config file (key = value lines)")
    sub.add_argument(
        "--set",
        action="append",
        metavar="KEY=VALUE",
        help="override one config key (repeatable)",
    )
    sub.add_argument("--out", help="output path (default: stdout)")
    sub.add_argument("--format", choices=("csv", "json"), default="csv", help="output format")
    sub.add_argument("--seed", type=int, help="override the config seed")


class _ArgumentParser(argparse.ArgumentParser):
    """argparse with usage errors exiting 1, like other configuration problems.

    argparse's own code for them, 2, is this interface's code for
    numerical failures.
    """

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _ArgumentParser(
        prog="trapcool",
        description="Feedback cooling of a trapped particle: stationary theory, "
        "conditioned trajectories, and self-checks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    steady = sub.add_parser("steady", help="closed-form stationary report")
    _add_common(steady)

    traj = sub.add_parser("trajectory", help="conditioned trajectory ensemble")
    _add_common(traj)

    sweep = sub.add_parser("sweep", help="stationary table over one parameter")
    _add_common(sweep)
    sweep.add_argument("--key", required=True, choices=SWEEPABLE_KEYS)
    sweep.add_argument("--values", required=True, help="comma-separated values")

    contour = sub.add_parser("contour", help="phase-space uncertainty contours")
    _add_common(contour)

    val = sub.add_parser("validate", help="run the self-check suite")
    val.add_argument("--level", choices=("fast", "full"), default="fast")
    val.add_argument("--out", help="report path (timings stay on stdout)")
    val.add_argument("--format", choices=("csv", "json"), default="csv")
    return parser


def _show_warning(message, category, filename, lineno, file=None, line=None):
    """warnings.showwarning for the command line: one stderr line per warning.

    The message is the report; Python's own record adds a source path and
    an echoed source line, which name no input.
    """
    print(f"warning: {message}", file=sys.stderr)


def main(argv=None) -> int:
    with warnings.catch_warnings():
        warnings.showwarning = _show_warning
        return _run(argv)


def _run(argv) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    # argparse reads a value list such as -1.6,-1.5 as an option, so a
    # --values, or a prefix of it argparse accepts, is joined with a next
    # token that starts with "-"; any other list reaches argparse as written
    at = 0
    while at < len(argv) - 1:
        if argv[at] in _VALUES_PREFIXES and argv[at + 1].startswith("-"):
            argv[at:at + 2] = [f"{argv[at]}={argv[at + 1]}"]
        at += 1
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as stop:
        # usage errors (1) and --help (0) end parsing this way
        return stop.code
    try:
        if args.command == "validate":
            return cmd_validate(args.level, args.out, args.format)
        cfg = _load_scenario(args)
        if args.command == "steady":
            return cmd_steady(cfg, args.out, args.format)
        if args.command == "trajectory":
            return cmd_trajectory(cfg, args.out, args.format)
        if args.command == "sweep":
            return cmd_sweep(cfg, args.key, _parse_values(args.values), args.out, args.format)
        return cmd_contour(cfg, args.out, args.format)
    except ConfigError as err:
        print(f"config error: {err}", file=sys.stderr)
        return 1
    except SimulationError as err:
        print(f"simulation error: {err}", file=sys.stderr)
        return 2
    except ValueError as err:
        print(f"config error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
