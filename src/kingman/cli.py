"""Command line front end.

Subcommands map one-to-one onto the experiment drivers, plus simulate-path,
which writes one compensated tree-length path as CSV (and optionally SVG).

Parameter flags are derived, not restated: `_FLAGS` maps each subcommand's
flags to the parameters of its `DEFAULTS` entry, and each flag parses the
type of its parameter's default (int, float, or a comma list of a tuple's
element type), with --t0/--t1 setting the two ends of `window`. Beside
those, every subcommand takes --config, --seed, --out and --svg, and the
experiments also take --format and --workers. A subcommand accepts no
other flag, and its config-file keys are its flag names other than
--config.

Option precedence is: command line flags, then a `key = value` config file
given with --config, then the versioned experiment defaults. The only
environment variable consulted is KINGMAN_OUT_DIR, which prefixes relative
output paths.

Exit status: 0 when every verdict passed, 1 when any verdict failed,
2 for usage or configuration errors.
"""

from __future__ import annotations

import argparse
import math
import os
import sys

import numpy as np

from . import __version__
from .experiments import (
    DEFAULTS, EXPERIMENTS, ORDINALS, _PER_REPLICATE, _resolve, _stream, _window,
)
from .reports import ExperimentReport, format_value, write_header_comments
from .rng import GENERATOR_ID
from .svg import emit_svg
from .treelength import TreeLengthPath, stationary_path

__all__ = ["main", "read_config_file"]

# Parameter flags of each subcommand: flag name -> the parameter it sets in
# that subcommand's DEFAULTS entry (a runner keyword for an experiment). The
# option is `--` plus the name with dashes; config files use the name.
_FLAGS = {
    "simulate-path": {"n": "n_leaves", "t0": "window", "t1": "window"},
    "mean-length": {"n": "n_leaves", "reps": "reps"},
    "gumbel": {"n": "n_leaves", "reps": "reps"},
    "poisson-deaths": {"levels": "max_level", "t0": "window", "t1": "window",
                       "reps": "reps"},
    "divergence": {"k_grid": "k_grid", "t0": "window", "t1": "window", "reps": "reps"},
    "qv-scan": {
        "n": "detail_n", "n_grid": "n_grid", "t0": "window", "t1": "window",
        "mesh_levels": "mesh_levels", "reps": "reps",
    },
    "variance-scaling": {"n": "n_levels", "eps_grid": "epsilons", "reps": "reps"},
    "crosscheck": {"n": "n_leaves", "t0": "window", "t1": "window"},
}

# Flags that set one end of a (start, end) parameter.
_ENDS = {"t0": 0, "t1": 1}


class UsageError(Exception):
    pass


def _list_of(kind):
    """Parser of a comma list of `kind` values, as a tuple."""
    def parse(text: str) -> tuple:
        try:
            return tuple(kind(part) for part in text.split(",") if part.strip())
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"expected comma-separated {kind.__name__} values, got {text!r}"
            ) from None
    return parse


def _parse_bool(text: str) -> bool:
    words = {"true": True, "1": True, "yes": True, "on": True,
             "false": False, "0": False, "no": False, "off": False}
    if text.lower() not in words:
        raise argparse.ArgumentTypeError(f"expected a boolean, got {text!r}")
    return words[text.lower()]


def _parse_format(text: str) -> str:
    if text not in ("csv", "json"):
        raise argparse.ArgumentTypeError(f"expected csv or json, got {text!r}")
    return text


# Options beside the parameter flags, name -> (parser, default, help); the
# path writer takes neither format nor workers.
_COMMON = {
    "seed": (int, 0, "root seed (default 0)"),
    "out": (str, None, "output path"),
    "svg": (_parse_bool, False, "also write an SVG plot"),
    "format": (_parse_format, "json", "report format, csv or json (default json)"),
    "workers": (int, None, "worker process count (default: every usable CPU "
                f"for {' and '.join(_PER_REPLICATE)}, 1 for the others)"),
}


def _options(name: str) -> dict:
    """Every option of one subcommand, name -> (parser, default, help). A
    parameter flag parses its DEFAULTS value's type and defaults to None."""
    options = {}
    for flag, param in _FLAGS[name].items():
        default = DEFAULTS[name][param]
        what = param
        if flag in _ENDS:
            default = default[_ENDS[flag]]
            what = f"{('start', 'end')[_ENDS[flag]]} of {param}"
        if isinstance(default, tuple):
            parse = _list_of(type(default[0]))
            shown = ",".join(format_value(v) for v in default)
        else:
            parse, shown = type(default), format_value(default)
        options[flag] = (parse, None, f"{what} (default {shown})")
    options.update(_COMMON)
    if name not in EXPERIMENTS:
        del options["format"], options["workers"]
    return options


def read_config_file(path: str) -> dict:
    """Parse a `key = value` file with `#` comments into raw string values."""
    values = {}
    with open(path, "r", encoding="utf-8") as fp:
        for lineno, raw in enumerate(fp, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise UsageError(f"{path}:{lineno}: expected key = value")
            key, _, value = line.partition("=")
            values[key.strip()] = value.strip()
    return values


def _build_parser() -> tuple[argparse.ArgumentParser, dict]:
    """The top-level parser and each subcommand's parser, by name."""
    parser = argparse.ArgumentParser(
        prog="kingman",
        description="Lookdown particle system simulator and statistics suite",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="subcommand", required=True)
    subparsers = {}
    for name in ORDINALS:
        kind = "experiment" if name in EXPERIMENTS else "writer"
        p = subparsers[name] = sub.add_parser(name, help=f"run the {name} {kind}")
        p.add_argument("--config", help="key = value file of these options")
        for key, (parse, _, text) in _options(name).items():
            option = "--" + key.replace("_", "-")
            if parse is _parse_bool:
                p.add_argument(option, action="store_true", default=None, help=text)
            else:
                p.add_argument(option, type=parse, help=text)
    return parser, subparsers


def build_config(argv: list[str]) -> tuple[str, dict]:
    """Parse argv into (subcommand, option values): flag > config file > default."""
    parser, subparsers = _build_parser()
    named = next((arg for arg in argv if arg in subparsers), None)
    for arg in argv[:argv.index(named)] if named else argv:
        flag = arg.split("=", 1)[0]
        if flag.startswith("--") and flag not in ("--help", "--version"):
            # The top level takes no parameters; argparse would read the
            # flag's value as the subcommand.
            parser.error(f"{flag} must follow the subcommand, as in "
                         f"'kingman {named or '<subcommand>'} {flag} ...'")
    ns, unknown = parser.parse_known_args(argv)
    name = ns.subcommand
    if unknown:
        # The subcommand's own usage lists the flags it does take.
        subparsers[name].error(f"unrecognized arguments: {' '.join(unknown)}")
    options = _options(name)
    values = {key: default for key, (_, default, _) in options.items()}
    if ns.config:
        for key, text in read_config_file(ns.config).items():
            if key not in options:
                raise UsageError(f"{ns.config}: unknown key {key!r} for {name}")
            try:
                values[key] = options[key][0](text)
            except (argparse.ArgumentTypeError, ValueError) as exc:
                raise UsageError(f"bad config value for {key}: {text!r}") from exc
    values.update((k, v) for k, v in vars(ns).items() if k in options and v is not None)
    workers = values.get("workers")
    if workers is not None and workers < 1:
        raise UsageError("workers must be at least 1")
    return name, values


def _params(name: str, values: dict) -> dict:
    """The parameters whose flags are set, keyed as in DEFAULTS[name]."""
    params = {}
    for flag, param in _FLAGS[name].items():
        value = values[flag]
        if value is None:
            continue
        if flag in _ENDS:
            ends = list(params.get(param, DEFAULTS[name][param]))
            ends[_ENDS[flag]] = value
            value = tuple(ends)
        params[param] = value
    return params


def _resolve_out(path: str) -> str:
    base = os.environ.get("KINGMAN_OUT_DIR")
    if base and not os.path.isabs(path):
        path = os.path.join(base, path)
    parent = os.path.dirname(path)
    if parent:
        os.makedirs(parent, exist_ok=True)
    return path


def _plot_series_from_report(report: ExperimentReport):
    """First table with two finite numeric columns and multiple rows, as a
    series, or None. emit_svg accepts every series this returns."""
    for t in report.tables:
        if t["name"] == "defaults" or len(t["rows"]) < 2:
            continue
        cols = t["columns"]
        rows = t["rows"]
        numeric = [
            i for i in range(len(cols))
            if all(isinstance(r[i], (int, float)) and not isinstance(r[i], bool)
                   and math.isfinite(r[i]) for r in rows)
        ]
        if len(numeric) >= 2:
            xi, yi = numeric[0], numeric[1]
            pts = [(float(r[xi]), float(r[yi])) for r in rows]
            label = f"{cols[yi]} vs {cols[xi]}"
            return t["name"], [(label, pts)], cols[xi], cols[yi]
    return None


def _write_report(report: ExperimentReport, values: dict) -> list[str]:
    picked = None
    if values["svg"]:
        if not values["out"]:
            raise UsageError("--svg needs --out to name the file")
        # Picked before any output file is opened, so a report with nothing
        # to plot is a usage error that leaves no files.
        picked = _plot_series_from_report(report)
        if picked is None:
            raise UsageError(
                f"{report.experiment} has no multi-row numeric table to plot"
            )
    written = []
    if values["out"]:
        out = _resolve_out(values["out"])
        if values["format"] == "json":
            with open(out, "w", encoding="utf-8") as fp:
                report.write_json(fp)
            written.append(out)
        else:
            stem, ext = os.path.splitext(out)
            if ext != ".csv":
                stem = out
            for t in report.tables:
                path = f"{stem}_{t['name']}.csv"
                with open(path, "w", encoding="utf-8") as fp:
                    report.write_table_csv(fp, t["name"])
                written.append(path)
        if picked:
            table_name, series, x_label, y_label = picked
            written.append(_write_svg(
                out, series, f"{report.experiment}: {table_name}", x_label, y_label,
                report.experiment, report.seed, report.params,
            ))
    return written


def _write_svg(out: str, series, title: str, x_label: str, y_label: str,
               experiment: str, seed: int, params: dict) -> str:
    """Plot `series` into out's stem plus ".svg", described by the run's
    experiment, seed, version and sorted params; return the SVG's path."""
    parts = [f"experiment={experiment}", f"seed={seed}", f"version={__version__}"]
    parts += [f"param.{key}={format_value(params[key])}" for key in sorted(params)]
    svg_path = os.path.splitext(out)[0] + ".svg"
    with open(svg_path, "w", encoding="utf-8") as fp:
        emit_svg(fp, series, title=title, x_label=x_label, y_label=y_label,
                 description=" ".join(parts))
    return svg_path


# Jumps per corner chunk: 2048 rows, 32 KB of doubles and about 80 KB of
# CSV text per write.
_JUMP_BATCH = 1024


class _PathCorners:
    """The (time, value) corner rows of a compensated length path, made
    chunk by chunk as they are read: the start, each jump's left limit and
    landing value, and the end. Only the path's ends, slope, jump times and
    jump sizes are kept, so the path and its root flags can go.

    len() is the row count, 2 per jump plus 2. Iterating yields (k, 2)
    float arrays: the start row, the jump rows of `jump_rows`, the end
    row. It can be iterated again, and each pass makes the same doubles.
    """

    def __init__(self, path: TreeLengthPath):
        self.start = (float(path.t0), float(path.v0))
        self.end = (float(path.t1), float(path.final_value))
        self.slope = path.slope
        self.jump_times, self.jump_sizes = path.jump_times, path.jump_sizes

    def __len__(self) -> int:
        return 2 * self.jump_times.size + 2

    def __iter__(self):
        yield np.array([self.start])
        yield from self.jump_rows()
        yield np.array([self.end])

    def jump_rows(self):
        """(2k, 2) chunks of the jump rows, left limit then landing value,
        at most _JUMP_BATCH jumps each.

        A chunk's values column first holds, per jump, slope * (jump time
        - previous time) and -jump size; adding the value carried from the
        row above to its first entry and one sequential cumsum turn it into
        the running values. That is the one cumsum of [v0, gap, -size, ...]
        over the whole path, cut into chunks, so the doubles are the same.
        """
        times, sizes = self.jump_times, self.jump_sizes
        prev, value = self.start
        for lo in range(0, times.size, _JUMP_BATCH):
            jt = times[lo:lo + _JUMP_BATCH]
            rows = np.empty((2 * jt.size, 2))
            rows[::2, 0] = rows[1::2, 0] = jt
            values, gaps = rows[:, 1], rows[::2, 1]
            gaps[0] = jt[0] - prev
            np.subtract(jt[1:], jt[:-1], out=gaps[1:])
            gaps *= self.slope
            np.negative(sizes[lo:lo + _JUMP_BATCH], out=rows[1::2, 1])
            values[0] += value
            np.cumsum(values, out=values)
            prev, value = jt[-1], values[-1]
            yield rows


def _write_path_csv(fp, corners: _PathCorners) -> None:
    """The corners as "time,value" rows, one write per chunk of jumps.

    repr is format_value's text for every double, nan and inf included.
    The two rows of a jump share its time, whose repr is taken once.
    """
    (t0, v0), (t1, v1) = corners.start, corners.end
    fp.write(f"{t0!r},{v0!r}\n")
    for block in corners.jump_rows():
        fp.write("".join([
            f"{t},{left!r}\n{t},{landed!r}\n" for t, left, landed in zip(
                map(repr, block[::2, 0].tolist()),
                block[::2, 1].tolist(), block[1::2, 1].tolist(),
            )
        ]))
    fp.write(f"{t1!r},{v1!r}\n")


def _run_simulate_path(values: dict) -> int:
    params = _resolve("simulate-path", _params("simulate-path", values))
    n = params["n_leaves"]
    seed = values["seed"]
    if n < 2:
        raise UsageError("--n must be at least 2")
    t0, t1 = _window(params)
    if not values["out"]:
        raise UsageError("simulate-path requires --out")
    corners = _PathCorners(stationary_path(n, (t0, t1), _stream(seed, "simulate-path", 0)))
    jumps = corners.jump_times.size  # each event is one jump

    out = _resolve_out(values["out"])
    meta = {
        "experiment": "simulate-path",
        "seed": seed,
        "generator": GENERATOR_ID,
        "version": __version__,
        "param.n": n,
        "param.t0": t0,
        "param.t1": t1,
        "param.compensated": True,
    }
    with open(out, "w", encoding="utf-8") as fp:
        write_header_comments(fp, meta)
        fp.write("time,length\n")
        _write_path_csv(fp, corners)
    written = [out]
    if values["svg"]:
        written.append(_write_svg(
            out, [("compensated length", corners)], f"compensated tree length, n={n}",
            "t", "length - 2 ln n", "simulate-path", seed, {"n": n, "t0": t0, "t1": t1},
        ))
    print(f"simulate-path: n={n} window=({format_value(t0)}, {format_value(t1)}) "
          f"events={jumps} jumps={jumps}")
    for path_name in written:
        print(f"wrote {path_name}")
    return 0


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        name, values = build_config(argv)
        try:
            if name == "simulate-path":
                return _run_simulate_path(values)
            report = EXPERIMENTS[name](seed=values["seed"], workers=values["workers"],
                                       **_params(name, values))
        except ValueError as exc:
            raise UsageError(str(exc)) from exc
        for v in report.verdicts:
            expected = "" if v.expected is None else f" expected={format_value(v.expected)}"
            tol = "" if v.tolerance is None else f" tolerance={format_value(v.tolerance)}"
            print(f"[{v.status}] {v.name}: observed={format_value(v.observed)}"
                  f"{expected}{tol}")
        for path in _write_report(report, values):
            print(f"wrote {path}")
        print(f"{name}: {'PASS' if report.passed else 'FAIL'} (seed={report.seed})")
        return 0 if report.passed else 1
    except (UsageError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
