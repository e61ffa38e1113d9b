"""CLI, config file, and SVG emitter tests."""

import hashlib
import importlib
import inspect
import io
import json
import math
import pkgutil
import time
import tracemalloc

import numpy as np
import pytest

import kingman
from kingman import experiments
from kingman.cli import (
    _FLAGS, UsageError, _replayed_corners, _write_path_csv, _write_report, main,
    read_config_file,
)
from kingman.experiments import DEFAULTS, EXPERIMENTS, ORDINALS
from kingman.reports import ExperimentReport
from kingman.rng import derive_stream_id, make_stream
from kingman.svg import emit_svg


def read_header_comments(fp, expected_header):
    """Parse '# key=value' leading comments, the header row, and data rows.

    Values are left as strings. Blank lines are ignored; the first
    non-comment line must equal expected_header, and no comment may follow
    it.
    """
    meta = {}
    header = None
    rows = []
    for raw in fp:
        line = raw.rstrip("\n")
        if not line:
            continue
        if line.startswith("# "):
            assert header is None, "comment line after the header row"
            key, sep, value = line[2:].partition("=")
            assert sep, f"malformed comment line: {line!r}"
            meta[key] = value
        elif header is None:
            header = line
            assert line == expected_header
        else:
            rows.append(line.split(","))
    assert header is not None, "file has no header row"
    return meta, rows


def test_simulate_path_writes_csv_and_svg(tmp_path):
    out = tmp_path / "path.csv"
    rc = main([
        "simulate-path", "--n", "30", "--t0", "0", "--t1", "5",
        "--seed", "7", "--out", str(out), "--svg",
    ])
    assert rc == 0
    svg = tmp_path / "path.svg"
    assert out.exists() and svg.exists()
    with open(out) as fp:
        meta, rows = read_header_comments(fp, "time,length")
    assert meta["seed"] == "7"
    assert meta["param.n"] == "30"
    assert meta["param.compensated"] == "true"
    assert "version" in meta
    times = [float(r[0]) for r in rows]
    values = [float(r[1]) for r in rows]
    assert times[0] == 0.0 and times[-1] == 5.0
    assert times == sorted(times)
    # compensated path: starts near ln(30) scale, never at an absurd value
    assert all(math.isfinite(v) for v in values)
    doc = svg.read_text()
    assert doc.startswith("<svg ") and doc.rstrip().endswith("</svg>")


def test_simulate_path_rerun_is_byte_identical(tmp_path):
    args = ["simulate-path", "--n", "12", "--t1", "2", "--seed", "3", "--svg"]
    out_a = tmp_path / "a.csv"
    out_b = tmp_path / "b.csv"
    assert main(args + ["--out", str(out_a)]) == 0
    assert main(args + ["--out", str(out_b)]) == 0
    assert out_a.read_bytes() == out_b.read_bytes()
    assert (tmp_path / "a.svg").read_bytes() == (tmp_path / "b.svg").read_bytes()


def test_simulate_path_output_bytes_are_pinned(tmp_path):
    # Digests of the files written by the per-point writer this one
    # replaced (they embed the package version in their headers). The
    # bulk writer must reproduce them byte for byte.
    out = tmp_path / "path.csv"
    assert main([
        "simulate-path", "--n", "30", "--t0", "0", "--t1", "5",
        "--seed", "7", "--svg", "--out", str(out),
    ]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == (
        "dfd5da3e9a26cd0f3bbdb8e4f6709ff469089c2b36d98a5e2dd38d86b8da0e90"
    )
    assert hashlib.sha256((tmp_path / "path.svg").read_bytes()).hexdigest() == (
        "a6df1e9a81d25d57de6d3ab78371eb63c567a0d4dbca0b53de5184901e662acc"
    )


@pytest.mark.parametrize("argv,seed,rc,digest", [
    (["gumbel", "--reps", "2000"], 1, 0,
     "006caf35215c429ba414758a0161d90f8cd2609bc63d1caa37f106c8eb6cca7c"),
    (["variance-scaling", "--n", "1000", "--reps", "100"], 1, 1,
     "7afad68239fb997a1201bc5a04aa7a8099380f75e28fa2494e050bcaf511f9f9"),
    (["poisson-deaths", "--levels", "6", "--reps", "20"], 1, 1,
     "acf09e49c958b75daa268da3349516b197903c723bde42ad2789bc2128e8f9f9"),
    (["qv-scan", "--n", "200", "--n-grid", "50,100,200", "--reps", "3"], 1, 1,
     "7527a9da5d883363ee78028c4b67625e77b2dc2f9312d0bff19892815d05d82b"),
    (["crosscheck"], 1, 0,
     "26550edc890452b1ba255cdb6d82a794277d63bbc617e62da7aecae6f0050100"),
    (["crosscheck"], 2, 0,
     "bd7b02fee1f67b02311afcfaa38cf769813a86c3c4c8fe1c49f3d6a2fc124ede"),
    (["divergence", "--reps", "3"], 1, 0,
     "bf502756972b0da23a199f56dc0d8a68e16d7d7bfeda6b7322d70512edb73309"),
], ids=["gumbel", "variance-scaling", "poisson-deaths", "qv-scan",
        "crosscheck-seed1", "crosscheck-seed2", "divergence"])
def test_report_output_bytes_are_pinned(tmp_path, argv, seed, rc, digest):
    # Digests of the reports written when the JSON text was built whole in
    # memory, the increment sampler permuted a copy of the time-0 tree,
    # poisson-deaths kept every sample's life lengths, replayed paths kept
    # their exit ages and crosscheck's negative control masked its log. At
    # these sizes some statistical verdicts fail (exit 1); the bytes are
    # what is pinned.
    out = tmp_path / "report.json"
    assert main(argv + ["--seed", str(seed), "--out", str(out)]) == rc
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


def test_simulate_path_multi_chunk_output_bytes_are_pinned(tmp_path):
    # About 2 * 10^4 jumps: the CSV spans several chunks of 1024 jumps and
    # the polyline several of 2048 points. Digests of the files written
    # when the whole SVG document was built in memory before being written.
    out = tmp_path / "path.csv"
    assert main([
        "simulate-path", "--n", "200", "--t1", "1",
        "--seed", "7", "--svg", "--out", str(out),
    ]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == (
        "f472de9ab80644171fe06af42cbe2ebb2b8a2010acf51933b43e70bb1c550167"
    )
    assert hashlib.sha256((tmp_path / "path.svg").read_bytes()).hexdigest() == (
        "1bf9585907a5f546e7d3c05bf9f3fd96780511f230afbe339534bf79ce8d81d2"
    )


def test_simulate_path_peak_memory_per_event(tmp_path):
    # Seed 1 on [0, 5] at n = 200: 99,928 jumps. The path shares the log's
    # times, forms no stored cumulative sizes, its root flags are gone
    # before any corner row is made, and the rows are made chunk by chunk:
    # about 42 bytes per event, against 51 with a whole corner matrix and
    # about 77 before that.
    out = tmp_path / "path.csv"
    args = ["simulate-path", "--n", "200", "--t1", "5", "--seed", "1", "--out", str(out)]
    tracemalloc.start()
    try:
        assert main(args) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    with open(out, encoding="utf-8") as fp:
        corners = sum(1 for line in fp if line[0].isdigit())
    events = (corners - 2) // 2
    assert events == 99_928
    assert peak <= 60 * events, f"{peak / events:.1f} bytes per event"


def test_simulate_path_writers_hold_no_corner_matrix(tmp_path):
    # The writers read the corners chunk by chunk from the replayed path's
    # jump times and sizes (16 bytes per event, 1.6 MB here). A whole
    # (2 jumps + 2, 2) corner matrix would be 3.2 MB on top of them.
    stream = make_stream(1, derive_stream_id(ORDINALS["simulate-path"], 0))
    tracemalloc.start()
    try:
        corners = _replayed_corners(200, (0.0, 5.0), stream)
        tracemalloc.reset_peak()
        with open(tmp_path / "path.csv", "w", encoding="utf-8") as fp:
            _write_path_csv(fp, corners)
        with open(tmp_path / "path.svg", "w", encoding="utf-8") as fp:
            emit_svg(fp, [("compensated length", corners)], title="t")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    events = (len(corners) - 2) // 2
    assert events == 99_928
    above = peak - 16 * events
    assert above <= 1e6, f"{above / 1e6:.2f} MB above the path"


@pytest.mark.parametrize("end", ["--t1=inf", "--t0=-inf"])
@pytest.mark.parametrize("name", [
    "qv-scan", "poisson-deaths", "divergence", "crosscheck", "simulate-path",
])
def test_infinite_window_is_a_usage_error(tmp_path, capsys, name, end):
    out = tmp_path / "out.json"
    assert main([name, end, "--out", str(out)]) == 2
    assert capsys.readouterr().err == "error: window endpoints must be finite\n"
    assert list(tmp_path.iterdir()) == []


def test_window_too_coarse_for_its_events_is_a_usage_error(tmp_path, capsys):
    # Near 1e12 a double's spacing (1.2e-4) is above the mean gap between
    # events at n = 200 (5e-5): the window's doubles cannot hold them apart.
    out = tmp_path / "path.csv"
    start = time.perf_counter()
    assert main(["simulate-path", "--n", "200", "--t0", "1e12",
                 "--t1", "1000000000005", "--out", str(out)]) == 2
    assert time.perf_counter() - start < 10.0
    assert capsys.readouterr().err.startswith(
        "error: the doubles of window (1000000000000.0, 1000000000005.0] "
        "are too coarse to separate tied Poisson arrivals"
    )
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("seed", ["0", "1", "2"])
def test_far_qv_scan_window_is_a_usage_error_at_every_seed(tmp_path, capsys, seed):
    # At rate C(100, 2) the doubles near 1e12 read rate * ulp = 0.60: the
    # check refuses the window before any draw, whatever the seed.
    out = tmp_path / "qv.json"
    assert main(["qv-scan", "--t0", "1e12", "--t1", "1000000000001", "--n", "100",
                 "--n-grid", "50,100", "--reps", "2", "--seed", seed,
                 "--out", str(out)]) == 2
    assert "too coarse to separate tied Poisson arrivals" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_simulate_path_requires_out():
    assert main(["simulate-path", "--n", "10"]) == 2


def test_simulate_path_bad_seed_is_usage_error(tmp_path):
    out = tmp_path / "p.csv"
    assert main(["simulate-path", "--seed", "-1", "--out", str(out)]) == 2
    assert not out.exists()


def test_exit_codes(tmp_path):
    assert main(["mean-length", "--reps", "200", "--seed", "2"]) == 0
    # far below the asymptotic regime the gumbel check genuinely fails
    assert main(["gumbel", "--n", "10", "--reps", "100", "--seed", "1"]) == 1
    assert main(["divergence", "--k-grid", "4,8"]) == 2
    assert main(["mean-length", "--reps", "0"]) == 2


@pytest.mark.parametrize("argv", [
    ["qv-scan", "--mesh-levels=-2,20", "--n", "50", "--n-grid", "50,100",
     "--reps", "2"],
])
def test_negative_dyadic_level_is_a_usage_error(argv, capsys):
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err == "error: dyadic level must be nonnegative\n"


def test_short_window_grid_sizes_use_mesh_level_0(tmp_path):
    # One cell, the whole window, is already finer than n = 2 and 3 need; the
    # run reaches its verdicts (exit 0 or 1) instead of a usage error.
    out = tmp_path / "qv.json"
    assert main(["qv-scan", "--n", "50", "--n-grid", "2,3", "--t1", "0.01",
                 "--reps", "2", "--mesh-levels", "0,8", "--out", str(out)]) in (0, 1)
    tables = json.loads(out.read_text())["tables"]
    qv_by_n = next(t for t in tables if t["name"] == "qv_by_n")["rows"]
    assert [row[:2] for row in qv_by_n] == [[2, 0], [3, 0]]


def test_detail_path_without_jumps_is_a_usage_error(tmp_path, capsys):
    out = tmp_path / "qv.json"
    assert main(["qv-scan", "--n", "2", "--n-grid", "50,100", "--t1", "0.01",
                 "--reps", "2", "--mesh-levels", "0,10", "--out", str(out)]) == 2
    assert "detail path (detail_n=2) has no jumps" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_dyadic_level_above_52_is_a_usage_error_before_any_job(monkeypatch, capsys):
    def no_jobs(jobs, workers):
        raise AssertionError("a job list was run")

    monkeypatch.setattr(experiments, "_map_blocks", no_jobs)
    argv = ["qv-scan", "--mesh-levels", "0,53", "--n", "50", "--n-grid", "50,100",
            "--reps", "2"]
    assert main(argv) == 2
    assert capsys.readouterr().err == "error: dyadic level must be at most 52\n"


def test_config_file_and_flag_precedence(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "# comment only line\n"
        "reps = 300\n"
        "seed = 9   # trailing comment\n"
        "n = 25\n"
    )
    out = tmp_path / "report.json"
    rc = main([
        "mean-length", "--config", str(cfg),
        "--seed", "4", "--out", str(out),
    ])
    assert rc == 0
    payload = json.loads(out.read_text())
    assert payload["seed"] == 4            # flag beats config
    assert payload["params"]["reps"] == 300  # config beats default
    assert payload["params"]["n_leaves"] == 25


def test_zero_workers_is_a_usage_error(tmp_path, monkeypatch, capsys):
    def no_jobs(jobs, workers):
        raise AssertionError("a job list was run")

    monkeypatch.setattr(experiments, "_map_blocks", no_jobs)
    cfg = tmp_path / "run.cfg"
    cfg.write_text("workers = 0\n")
    for argv in (["divergence", "--workers", "0"], ["gumbel", "--config", str(cfg)]):
        assert main(argv) == 2
        assert capsys.readouterr().err == "error: workers must be at least 1\n"


@pytest.mark.parametrize("argv", [
    ["crosscheck", "--reps", "5"],
    ["gumbel", "--levels", "4"],
    ["simulate-path", "--workers", "2"],
    ["mean-length", "--t0", "1"],
])
def test_flag_a_subcommand_does_not_read_is_a_usage_error(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert f"unrecognized arguments: {' '.join(argv[1:])}" in err
    # The usage line is the subcommand's, which lists the flags it takes.
    assert err.startswith(f"usage: kingman {argv[0]} ")


@pytest.mark.parametrize("argv, shown", [
    (["--reps", "5", "gumbel"], "kingman gumbel --reps"),
    (["--n=20", "mean-length", "--reps", "5"], "kingman mean-length --n"),
    (["--seed", "3"], "kingman <subcommand> --seed"),
])
def test_flag_before_the_subcommand_is_named(argv, shown, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    flag = shown.split()[-1]
    assert f"{flag} must follow the subcommand, as in '{shown} ...'" in capsys.readouterr().err


@pytest.mark.parametrize("name, argv, expected", [
    ("mean-length", ["--n", "25", "--reps", "100"], {"n_leaves": 25, "reps": 100}),
    ("gumbel", ["--n", "20", "--reps", "50"], {"n_leaves": 20, "reps": 50}),
    ("poisson-deaths", ["--levels", "5", "--t1", "3", "--reps", "10"],
     {"max_level": 5, "window": [0.0, 3.0], "reps": 10}),
    ("divergence", ["--k-grid", "2,4,8,200", "--t0", "0.5", "--reps", "2"],
     {"k_grid": [2, 4, 8, 200], "window": [0.5, 1.0], "reps": 2}),
    ("qv-scan", ["--n", "40", "--n-grid", "10,20", "--mesh-levels", "0,8,16",
                 "--t0", "0.25", "--t1", "1.25", "--reps", "2"],
     {"detail_n": 40, "n_grid": [10, 20], "mesh_levels": [0, 8, 16],
      "window": [0.25, 1.25], "reps": 2}),
    ("variance-scaling", ["--n", "50", "--eps-grid", "0.2,0.3", "--reps", "20"],
     {"n_levels": 50, "epsilons": [0.2, 0.3], "reps": 20}),
    ("crosscheck", ["--n", "10", "--t0", "0.5"], {"n_leaves": 10, "window": [0.5, 1.0]}),
])
def test_each_flag_sets_its_parameter(tmp_path, name, argv, expected):
    out = tmp_path / "report.json"
    assert main([name, *argv, "--out", str(out)]) in (0, 1)
    params = json.loads(out.read_text())["params"]
    # every other parameter keeps its default
    assert params == {**json.loads(json.dumps(DEFAULTS[name])), **expected}


@pytest.mark.parametrize("module", sorted(
    info.name for info in pkgutil.iter_modules(kingman.__path__, "kingman.")
))
def test_every_public_name_resolves(module):
    mod = importlib.import_module(module)
    missing = [name for name in getattr(mod, "__all__", ()) if not hasattr(mod, name)]
    assert missing == []


def test_flag_table_matches_runner_parameters():
    assert list(_FLAGS) == list(ORDINALS)
    for name, flags in _FLAGS.items():
        assert set(flags.values()) <= set(DEFAULTS[name])
    for name, runner in EXPERIMENTS.items():
        keywords = set(inspect.signature(runner).parameters) - {"seed", "workers"}
        assert set(_FLAGS[name].values()) == keywords, name


def test_help_names_each_parameter_and_default(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["qv-scan", "--help"])
    assert exc.value.code == 0
    text = capsys.readouterr().out
    assert "detail_n (default 500)" in text
    assert "start of window (default 0.0)" in text
    assert "n_grid (default 50,100,200,400,800)" in text
    assert "--levels" not in text
    # The --workers default names every per-replicate runner; wrapping may
    # split a line at any space or hyphen.
    for name in experiments._PER_REPLICATE:
        assert name in "".join(text.split())


def test_config_file_rejects_unknown_and_malformed(tmp_path):
    bad_key = tmp_path / "bad1.cfg"
    bad_key.write_text("repz = 10\n")
    assert main(["mean-length", "--config", str(bad_key)]) == 2
    bad_line = tmp_path / "bad2.cfg"
    bad_line.write_text("just some words\n")
    assert main(["mean-length", "--config", str(bad_line)]) == 2
    bad_bool = tmp_path / "bad3.cfg"
    bad_bool.write_text("svg = maybe\n")
    assert main(["mean-length", "--config", str(bad_bool)]) == 2
    # keys of other subcommands: levels is poisson-deaths', and the path
    # writer has no report format
    unread = tmp_path / "bad4.cfg"
    unread.write_text("levels = 7\n")
    assert main(["mean-length", "--config", str(unread)]) == 2
    unread.write_text("format = csv\n")
    out = tmp_path / "p.csv"
    assert main(["simulate-path", "--config", str(unread), "--out", str(out)]) == 2
    assert not out.exists()


def test_read_config_file_values(tmp_path):
    cfg = tmp_path / "full.cfg"
    cfg.write_text("k_grid = 4,16,64,400\nsvg = true\nformat = csv\n")
    raw = read_config_file(str(cfg))
    assert raw == {"k_grid": "4,16,64,400", "svg": "true", "format": "csv"}


def test_out_dir_env_prefixes_relative_paths(tmp_path, monkeypatch):
    target = tmp_path / "outputs"
    target.mkdir()
    monkeypatch.setenv("KINGMAN_OUT_DIR", str(target))
    rc = main(["mean-length", "--reps", "150", "--out", "r.json"])
    assert rc == 0
    assert (target / "r.json").exists()
    # absolute paths are left alone
    absolute = tmp_path / "abs.json"
    rc = main(["mean-length", "--reps", "150", "--out", str(absolute)])
    assert rc == 0
    assert absolute.exists()


def test_missing_output_directory_is_created(tmp_path, monkeypatch):
    monkeypatch.setenv("KINGMAN_OUT_DIR", str(tmp_path / "not" / "yet"))
    rc = main(["mean-length", "--reps", "150", "--out", "r.json"])
    assert rc == 0
    assert (tmp_path / "not" / "yet" / "r.json").exists()
    nested = tmp_path / "deep" / "dir" / "abs.json"
    rc = main(["mean-length", "--reps", "150", "--out", str(nested)])
    assert rc == 0
    assert nested.exists()


def test_csv_format_writes_one_file_per_table(tmp_path):
    out = tmp_path / "ml.csv"
    rc = main([
        "mean-length", "--reps", "200", "--seed", "6",
        "--out", str(out), "--format", "csv",
    ])
    assert rc == 0
    summary = tmp_path / "ml_summary.csv"
    defaults = tmp_path / "ml_defaults.csv"
    assert summary.exists() and defaults.exists()
    with open(summary) as fp:
        meta, rows = read_header_comments(
            fp, "n_leaves,reps,mean,se,expected,rel_error,mean_z"
        )
    assert meta["experiment"] == "mean-length"
    assert meta["seed"] == "6"
    assert len(rows) == 1
    assert float(rows[0][2]) > 0.0


def test_experiment_svg_output_is_deterministic(tmp_path):
    args = [
        "variance-scaling", "--n", "50", "--eps-grid", "0.2,0.3",
        "--reps", "60", "--seed", "3", "--svg",
    ]
    out_a = tmp_path / "vs_a.json"
    out_b = tmp_path / "vs_b.json"
    assert main(args + ["--out", str(out_a)]) == 0
    assert main(args + ["--out", str(out_b)]) == 0
    svg_a = (tmp_path / "vs_a.svg").read_bytes()
    svg_b = (tmp_path / "vs_b.svg").read_bytes()
    assert svg_a == svg_b
    assert b"<desc>" in svg_a  # outputs carry their provenance


def test_svg_needs_a_plottable_table(tmp_path):
    # The series is picked before any output file is opened, so the usage
    # error leaves no files.
    for argv in (["mean-length", "--reps", "150"],
                 ["gumbel", "--n", "10", "--reps", "20"],
                 ["crosscheck", "--n", "10"]):
        out = tmp_path / argv[0] / "report.json"
        assert main(argv + ["--out", str(out), "--svg"]) == 2
    assert list(tmp_path.iterdir()) == []


def test_svg_plots_only_finite_columns(tmp_path):
    report = ExperimentReport("mean-length", {}, 0, "g", "v", "d")
    report.add_table("t", ["x", "y", "z"], [[1.0, 2.0, 0.5], [2.0, math.nan, 1.5]])
    values = {"out": str(tmp_path / "r.json"), "format": "json", "svg": True}
    _write_report(report, values)
    assert "z vs x" in (tmp_path / "r.svg").read_text()
    report.tables[0]["rows"][0][2] = math.inf
    values["out"] = str(tmp_path / "s.json")
    with pytest.raises(UsageError):
        _write_report(report, values)
    assert not (tmp_path / "s.svg").exists()


def _long_report(rows: int) -> ExperimentReport:
    report = ExperimentReport("gumbel", {"reps": rows}, 1, "g", "v", "d")
    values = np.random.default_rng(0).standard_normal(rows)
    report.add_table("centered_lengths", ["centered_length"],
                     [[float(v)] for v in values])
    report.add_table("odd", ["a", "b"], [[math.nan, True], [-math.inf, "\u00e9"]])
    report.add_verdict("ks_statistic_small", 0.01, 0.0, 0.02, "pass")
    return report


def test_write_json_writes_the_to_json_text(tmp_path):
    # One serializer: the file, streamed chunk by chunk, holds exactly
    # to_json(), which is the indent-2 json.dumps text and a newline.
    report = _long_report(3000)
    out = tmp_path / "r.json"
    with open(out, "w", encoding="utf-8") as fp:
        report.write_json(fp)
    text = out.read_text(encoding="utf-8")
    assert text == report.to_json()
    assert text == json.dumps(report.to_dict(), indent=2) + "\n"
    assert json.loads(text)["tables"][0]["rows"] == report.tables[0]["rows"]


def test_write_json_memory_is_independent_of_the_report_size():
    # A 10^4-row report is about 0.5 MB of text; joined whole, the text and
    # its chunk list peak about 2.1 MB above the report itself.
    report = _long_report(10_000)

    class Sink:
        def write(self, text):
            pass

    tracemalloc.start()
    try:
        report.write_json(Sink())
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 0.1e6, f"peak {peak / 1e6:.3f} MB"


def _svg(series, **labels) -> str:
    buf = io.StringIO()
    emit_svg(buf, series, **labels)
    return buf.getvalue()


def test_emit_svg_validation():
    bad_series = [
        [],
        [("empty", [])],
        [("bad", [(0.0, math.nan)])],
        [("bad", np.full((3, 2), math.inf))],
        [("flat", [0.0, 1.0, 2.0])],
        # A bad series after a good one: nothing is written for either.
        [("good", [(0.0, 1.0), (1.0, 2.0)]), ("empty", [])],
    ]
    for series in bad_series:
        buf = io.StringIO()
        with pytest.raises(ValueError):
            emit_svg(buf, series)
        assert buf.getvalue() == ""


def test_emit_svg_escapes_labels():
    pts = [(0.0, 1.0), (1.0, 2.0), (2.0, 0.5)]
    assert "a&lt;b&gt;&amp;&quot;c&quot;" in _svg([("a<b>&\"c\"", pts)])


def test_emit_svg_step_mode_bytes_are_pinned():
    # Digest of the per-point renderer's output; list and array points
    # must both reproduce it.
    stairs = [(0.0, 1.0), (1.0, 2.0), (2.0, 0.5), (3.5, -1.25), (4.0, 0.75)]
    two = [(0.5, 0.0), (2.5, 3.0)]
    one = [(1.5, 1.0)]
    for wrap in (list, np.array):
        doc = _svg(
            [("staircase", wrap(stairs)), ("two", wrap(two)), ("one", wrap(one))],
            title="t", x_label="x", y_label="y", description="d",
        )
        assert hashlib.sha256(doc.encode()).hexdigest() == (
            "264a894dab2d8291fb1ae26b1c4cbfcacbf9ecffa927b2ddf4ab0fc63025dc62"
        )


def test_emit_svg_streams_in_memory_independent_of_the_point_count(tmp_path):
    # simulate-path's default path (n = 200 on [0, 5]): about 2 * 10^5
    # corners, a 2.8 MB document. Streamed to a file, emit_svg holds one
    # corner chunk and the text of one fragment of at most 2048 points;
    # a document built in memory and then written needs twice its length
    # (5.3 MB).
    stream = make_stream(1, derive_stream_id(ORDINALS["simulate-path"], 0))
    corners = _replayed_corners(200, (0.0, 5.0), stream)
    sink = tmp_path / "path.svg"
    with open(sink, "w", encoding="utf-8") as fp:
        tracemalloc.start()
        try:
            emit_svg(fp, [("compensated length", corners)], title="t")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peak <= 2 * 2**20, f"peak {peak / 2**20:.2f} MB"
    # The chunks join into one points list with single spaces.
    with open(sink, encoding="utf-8") as fp:
        line = next(l for l in fp if l.startswith("<polyline"))
    coords = line.split('"')[1].split(" ")
    assert len(coords) == len(corners) and all(c.count(",") == 1 for c in coords)


def test_emit_svg_degenerate_ranges_render():
    doc = _svg([("flat", [(0.0, 3.0), (1.0, 3.0)])], title="t", x_label="x", y_label="y")
    assert "<svg " in doc and "polyline" in doc
    single = _svg([("dot", [(2.0, 2.0)])])
    assert "polyline" in single
