"""CLI, config file, and SVG emitter tests."""

import json
import math

import pytest

from kingman.cli import main, read_config_file
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


def test_simulate_path_requires_out():
    assert main(["simulate-path", "--n", "10"]) == 2


def test_exit_codes(tmp_path):
    assert main(["mean-length", "--reps", "200", "--seed", "2"]) == 0
    # far below the asymptotic regime the gumbel check genuinely fails
    assert main(["gumbel", "--n", "10", "--reps", "100", "--seed", "1"]) == 1
    assert main(["divergence", "--k-grid", "4,8"]) == 2
    assert main(["mean-length", "--reps", "0"]) == 2


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
            fp, "n_leaves,reps,mean,se,expected,rel_error"
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
    out = tmp_path / "ml.json"
    rc = main([
        "mean-length", "--reps", "150", "--out", str(out), "--svg",
    ])
    assert rc == 2


def test_emit_svg_validation():
    with pytest.raises(ValueError):
        emit_svg([])
    with pytest.raises(ValueError):
        emit_svg([("empty", [])])
    with pytest.raises(ValueError):
        emit_svg([("bad", [(0.0, math.nan)])])


def test_emit_svg_step_mode_and_escaping():
    pts = [(0.0, 1.0), (1.0, 2.0), (2.0, 0.5)]
    flat = emit_svg([("a<b>&\"c\"", pts)])
    stepped = emit_svg([("s", pts)], step=True)
    assert "a&lt;b&gt;&amp;&quot;c&quot;" in flat
    # staircase rendering has 2n - 1 points for n originals
    def count_coords(doc):
        line = next(l for l in doc.splitlines() if l.startswith("<polyline"))
        return line.count(",")
    assert count_coords(stepped) == 2 * count_coords(flat) - 1
    # determinism
    assert emit_svg([("s", pts)], step=True) == stepped


def test_emit_svg_degenerate_ranges_render():
    doc = emit_svg([("flat", [(0.0, 3.0), (1.0, 3.0)])], title="t", x_label="x", y_label="y")
    assert "<svg " in doc and "polyline" in doc
    single = emit_svg([("dot", [(2.0, 2.0)])])
    assert "polyline" in single
