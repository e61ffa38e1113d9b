"""Command line front end.

Subcommands map one-to-one onto the experiment drivers, plus simulate-path,
which writes one compensated tree-length path as CSV (and optionally SVG).

Option precedence is: command line flags, then a `key = value` config file
given with --config, then the versioned experiment defaults. The only
environment variable consulted is KINGMAN_OUT_DIR, which prefixes relative
output paths.

Exit status: 0 when every verdict passed, 1 when any verdict failed,
2 for usage or configuration errors.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import dataclass, fields

import numpy as np

from . import __version__
from .experiments import DEFAULTS, EXPERIMENTS, ORDINALS
from .lookdown import sample_stationary_state, simulate_events
from .reports import ExperimentReport, format_value, write_header_comments
from .rng import GENERATOR_ID, derive_stream_id, make_stream
from .svg import emit_svg
from .treelength import TreeLengthPath, build_path

__all__ = ["CliConfig", "main", "read_config_file"]

_SUBCOMMANDS = (
    "simulate-path",
    "mean-length",
    "gumbel",
    "poisson-deaths",
    "divergence",
    "qv-scan",
    "variance-scaling",
    "crosscheck",
)


@dataclass
class CliConfig:
    """Fully resolved invocation, after flag/config/default precedence."""

    subcommand: str
    n: int | None = None
    t0: float | None = None
    t1: float | None = None
    seed: int = 0
    reps: int | None = None
    levels: int | None = None
    k_grid: tuple[int, ...] | None = None
    n_grid: tuple[int, ...] | None = None
    mesh_levels: tuple[int, ...] | None = None
    eps_grid: tuple[float, ...] | None = None
    out: str | None = None
    format: str = "json"
    svg: bool = False
    workers: int = 1


class UsageError(Exception):
    pass


def _parse_int_list(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in str(text).split(",") if part.strip())
    except ValueError as exc:
        raise UsageError(f"expected comma-separated integers, got {text!r}") from exc


def _parse_float_list(text: str) -> tuple[float, ...]:
    try:
        return tuple(float(part) for part in str(text).split(",") if part.strip())
    except ValueError as exc:
        raise UsageError(f"expected comma-separated numbers, got {text!r}") from exc


_COERCERS = {
    "n": int,
    "t0": float,
    "t1": float,
    "seed": int,
    "reps": int,
    "levels": int,
    "k_grid": _parse_int_list,
    "n_grid": _parse_int_list,
    "mesh_levels": _parse_int_list,
    "eps_grid": _parse_float_list,
    "out": str,
    "format": str,
    "workers": int,
}


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
            key = key.strip()
            value = value.strip()
            if key not in _COERCERS and key != "svg":
                raise UsageError(f"{path}:{lineno}: unknown key {key!r}")
            values[key] = value
    return values


def _coerce_config_values(raw: dict) -> dict:
    out = {}
    for key, value in raw.items():
        if key == "svg":
            lowered = value.lower()
            if lowered in ("true", "1", "yes", "on"):
                out[key] = True
            elif lowered in ("false", "0", "no", "off"):
                out[key] = False
            else:
                raise UsageError(f"config key svg must be boolean, got {value!r}")
            continue
        try:
            out[key] = _COERCERS[key](value)
        except UsageError:
            raise
        except (TypeError, ValueError) as exc:
            raise UsageError(f"bad config value for {key}: {value!r}") from exc
    return out


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kingman",
        description="Lookdown particle system simulator and statistics suite",
    )
    parser.add_argument(
        "--version", action="version", version=f"%(prog)s {__version__}"
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name in _SUBCOMMANDS:
        p = sub.add_parser(name, help=f"run the {name} {'writer' if name == 'simulate-path' else 'experiment'}")
        p.add_argument("--config", help="key = value config file")
        p.add_argument("--n", type=int, help="system size (meaning varies per subcommand)")
        p.add_argument("--t0", type=float, help="window start")
        p.add_argument("--t1", type=float, help="window end")
        p.add_argument("--seed", type=int, help="root seed (default 0)")
        p.add_argument("--reps", type=int, help="replicate count")
        p.add_argument("--levels", type=int, help="largest level (poisson-deaths)")
        p.add_argument("--k-grid", dest="k_grid", help="comma list of K values (divergence)")
        p.add_argument("--n-grid", dest="n_grid", help="comma list of system sizes (qv-scan)")
        p.add_argument("--mesh-levels", dest="mesh_levels", help="comma list of dyadic levels (qv-scan)")
        p.add_argument("--eps-grid", dest="eps_grid", help="comma list of epsilons (variance-scaling)")
        p.add_argument("--out", help="output path")
        p.add_argument("--format", choices=["csv", "json"], help="report format (default json)")
        p.add_argument("--svg", action="store_true", default=None, help="also write an SVG plot")
        p.add_argument("--workers", type=int, help="worker process count (default 1)")
    return parser


def build_config(argv: list[str]) -> CliConfig:
    """Parse argv into a CliConfig, applying flag > config file > default."""
    parser = _build_parser()
    ns = parser.parse_args(argv)
    file_values: dict = {}
    if ns.config:
        file_values = _coerce_config_values(read_config_file(ns.config))
    cfg = CliConfig(subcommand=ns.subcommand)
    for f in fields(CliConfig):
        if f.name == "subcommand":
            continue
        flag_value = getattr(ns, f.name, None)
        if f.name in ("k_grid", "n_grid", "mesh_levels"):
            if flag_value is not None:
                flag_value = _parse_int_list(flag_value)
        elif f.name == "eps_grid":
            if flag_value is not None:
                flag_value = _parse_float_list(flag_value)
        if flag_value is not None:
            setattr(cfg, f.name, flag_value)
        elif f.name in file_values:
            setattr(cfg, f.name, file_values[f.name])
    if cfg.workers < 1:
        raise UsageError("workers must be at least 1")
    if cfg.format not in ("csv", "json"):
        raise UsageError(f"unknown format {cfg.format!r}")
    return cfg


def _window(cfg: CliConfig) -> tuple[float, float] | None:
    if cfg.t0 is None and cfg.t1 is None:
        return None
    name = cfg.subcommand
    default = DEFAULTS[name]["window"] if name in DEFAULTS and "window" in DEFAULTS[name] else (0.0, 1.0)
    t0 = default[0] if cfg.t0 is None else cfg.t0
    t1 = default[1] if cfg.t1 is None else cfg.t1
    return (t0, t1)


def _experiment_kwargs(cfg: CliConfig) -> dict:
    name = cfg.subcommand
    if name == "mean-length":
        return {"n_leaves": cfg.n, "reps": cfg.reps}
    if name == "gumbel":
        return {"n_leaves": cfg.n, "reps": cfg.reps}
    if name == "poisson-deaths":
        return {"max_level": cfg.levels, "window": _window(cfg), "reps": cfg.reps}
    if name == "divergence":
        return {"k_grid": cfg.k_grid, "window": _window(cfg), "reps": cfg.reps}
    if name == "qv-scan":
        return {
            "n_grid": cfg.n_grid,
            "window": _window(cfg),
            "mesh_levels": cfg.mesh_levels,
            "reps": cfg.reps,
            "detail_n": cfg.n,
        }
    if name == "variance-scaling":
        return {"n_levels": cfg.n, "epsilons": cfg.eps_grid, "reps": cfg.reps}
    if name == "crosscheck":
        return {"n_leaves": cfg.n, "window": _window(cfg)}
    raise UsageError(f"unknown subcommand {name!r}")


def _resolve_out(path: str) -> str:
    base = os.environ.get("KINGMAN_OUT_DIR")
    if base and not os.path.isabs(path):
        path = os.path.join(base, path)
    parent = os.path.dirname(path)
    if parent:
        os.makedirs(parent, exist_ok=True)
    return path


def _plot_series_from_report(report: ExperimentReport):
    """First table with two numeric columns and multiple rows, as a series."""
    for t in report.tables:
        if t["name"] == "defaults" or len(t["rows"]) < 2:
            continue
        cols = t["columns"]
        rows = t["rows"]
        numeric = [
            i for i in range(len(cols))
            if all(isinstance(r[i], (int, float)) and not isinstance(r[i], bool) for r in rows)
        ]
        if len(numeric) >= 2:
            xi, yi = numeric[0], numeric[1]
            pts = [(float(r[xi]), float(r[yi])) for r in rows]
            label = f"{cols[yi]} vs {cols[xi]}"
            return t["name"], [(label, pts)], cols[xi], cols[yi]
    return None


def _write_report(report: ExperimentReport, cfg: CliConfig) -> list[str]:
    written = []
    if cfg.out:
        out = _resolve_out(cfg.out)
        if cfg.format == "json":
            with open(out, "w", encoding="utf-8") as fp:
                fp.write(report.to_json())
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
        if cfg.svg:
            picked = _plot_series_from_report(report)
            if picked is None:
                raise UsageError(
                    f"{report.experiment} has no multi-row numeric table to plot"
                )
            table_name, series, x_label, y_label = picked
            svg_path = os.path.splitext(out)[0] + ".svg"
            doc = emit_svg(
                series,
                title=f"{report.experiment}: {table_name}",
                x_label=x_label,
                y_label=y_label,
                description=_meta_description(report.experiment, report.seed, report.params),
            )
            with open(svg_path, "w", encoding="utf-8") as fp:
                fp.write(doc)
            written.append(svg_path)
    elif cfg.svg:
        raise UsageError("--svg needs --out to name the file")
    return written


def _meta_description(experiment: str, seed: int, params: dict) -> str:
    parts = [f"experiment={experiment}", f"seed={seed}", f"version={__version__}"]
    for key in sorted(params):
        parts.append(f"param.{key}={format_value(params[key])}")
    return " ".join(parts)


def _path_corners(path: TreeLengthPath) -> np.ndarray:
    """(time, value) rows of a path's corners: the start, each jump's left
    limit and landing value, and the end.

    The values are the running sums v0 + slope * (jump time - previous
    time) - jump size, taken by one sequential cumsum in that order.
    """
    n = path.n_jumps
    steps = np.empty(2 * n + 1)
    steps[0] = path.v0
    steps[1::2] = path.slope * np.diff(path.jump_times, prepend=path.t0)
    steps[2::2] = -path.jump_sizes
    corners = np.empty((2 * n + 2, 2))
    corners[0, 0] = path.t0
    corners[1:-1, 0] = np.repeat(path.jump_times, 2)
    corners[-1] = (path.t1, path.final_value)
    corners[:-1, 1] = np.cumsum(steps)
    return corners


def _run_simulate_path(cfg: CliConfig) -> int:
    n = 30 if cfg.n is None else cfg.n
    t0 = 0.0 if cfg.t0 is None else cfg.t0
    t1 = 5.0 if cfg.t1 is None else cfg.t1
    if n < 2:
        raise UsageError("--n must be at least 2")
    if not t1 > t0:
        raise UsageError("--t1 must exceed --t0")
    if not cfg.out:
        raise UsageError("simulate-path requires --out")
    stream = make_stream(cfg.seed, derive_stream_id(ORDINALS["simulate-path"], 0))
    state = sample_stationary_state(n, t0, stream)
    log = simulate_events(n, (t0, t1), stream)
    path = build_path(state, log, compensated=True)
    points = _path_corners(path)

    out = _resolve_out(cfg.out)
    meta = {
        "experiment": "simulate-path",
        "seed": cfg.seed,
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
        # repr is format_value's text for every double, nan and inf included.
        for lo in range(0, len(points), 8192):
            rows = points[lo:lo + 8192].tolist()
            fp.write("".join([f"{x!r},{y!r}\n" for x, y in rows]))
    written = [out]
    if cfg.svg:
        svg_path = os.path.splitext(out)[0] + ".svg"
        doc = emit_svg(
            [("compensated length", points)],
            title=f"compensated tree length, n={n}",
            x_label="t",
            y_label="length - 2 ln n",
            description=_meta_description(
                "simulate-path", cfg.seed, {"n": n, "t0": t0, "t1": t1}
            ),
        )
        with open(svg_path, "w", encoding="utf-8") as fp:
            fp.write(doc)
        written.append(svg_path)
    print(f"simulate-path: n={n} window=({format_value(t0)}, {format_value(t1)}) "
          f"events={log.n_events} jumps={path.n_jumps}")
    for path_name in written:
        print(f"wrote {path_name}")
    return 0


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        cfg = build_config(argv)
        try:
            if cfg.subcommand == "simulate-path":
                return _run_simulate_path(cfg)
            runner = EXPERIMENTS[cfg.subcommand]
            report = runner(seed=cfg.seed, workers=cfg.workers,
                            **_experiment_kwargs(cfg))
        except ValueError as exc:
            raise UsageError(str(exc)) from exc
        for v in report.verdicts:
            expected = "" if v.expected is None else f" expected={format_value(v.expected)}"
            tol = "" if v.tolerance is None else f" tolerance={format_value(v.tolerance)}"
            print(f"[{v.status}] {v.name}: observed={format_value(v.observed)}"
                  f"{expected}{tol}")
        for path in _write_report(report, cfg):
            print(f"wrote {path}")
        print(f"{cfg.subcommand}: {'PASS' if report.passed else 'FAIL'} "
              f"(seed={report.seed})")
        return 0 if report.passed else 1
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
