"""Report plumbing: deterministic text formats shared by CSV/JSON outputs.

Floats are written with Python's shortest round-trip repr so rereading a
file reproduces the exact doubles. CSV files use ',' delimiters, '\\n' line
endings, no quoting, and carry their provenance (seed, parameters, version)
as leading '# key=value' comment lines.
"""

from __future__ import annotations

import io
import json
from dataclasses import asdict, dataclass, field

__all__ = [
    "ExperimentReport",
    "Verdict",
    "format_value",
    "write_header_comments",
]


def format_value(v) -> str:
    """Render a header/CSV cell: floats as the shortest repr that round-trips
    (nan, inf, -inf included), everything else str()."""
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        # float(): numpy 2 reprs a float64 as np.float64(...).
        return repr(float(v))
    return str(v)


def write_header_comments(fp: io.TextIOBase, meta: dict) -> None:
    for key, value in meta.items():
        fp.write(f"# {key}={format_value(value)}\n")


# ---------------------------------------------------------------------------
# Structured experiment reports
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Verdict:
    """One named check inside an experiment.

    status is one of 'pass', 'fail', 'inconclusive', 'info'. Only 'fail'
    makes a run unsuccessful; 'inconclusive' flags checks whose statistical
    resolution was too coarse to decide, 'info' reports observables with no
    pinned expectation at the run's scale.
    """

    name: str
    observed: float
    expected: float | None
    tolerance: float | None
    status: str

    _STATUSES = ("pass", "fail", "inconclusive", "info")

    def __post_init__(self) -> None:
        if self.status not in self._STATUSES:
            raise ValueError(f"unknown status {self.status!r}")

    @property
    def passed(self) -> bool:
        return self.status != "fail"

    def to_dict(self) -> dict:
        return {**asdict(self), "pass": self.passed}


@dataclass
class ExperimentReport:
    """Everything one experiment run produced, serializable to JSON.

    tables is a list of {name, columns, rows}; verdicts a list of Verdict.
    The seed, full parameter set, generator identity, and package version
    ride along so any output file regenerates bit-identically.
    """

    experiment: str
    params: dict
    seed: int
    generator: str
    version: str
    defaults_version: str
    tables: list = field(default_factory=list)
    verdicts: list = field(default_factory=list)

    def add_table(self, name: str, columns: list[str], rows: list[list]) -> None:
        self.tables.append({"name": name, "columns": list(columns), "rows": rows})

    def add_verdict(
        self,
        name: str,
        observed: float,
        expected: float | None,
        tolerance: float | None,
        status: str,
    ) -> Verdict:
        v = Verdict(name, observed, expected, tolerance, status)
        self.verdicts.append(v)
        return v

    @property
    def passed(self) -> bool:
        return all(v.passed for v in self.verdicts)

    def table(self, name: str) -> dict:
        for t in self.tables:
            if t["name"] == name:
                return t
        raise KeyError(name)

    def verdict(self, name: str) -> Verdict:
        for v in self.verdicts:
            if v.name == name:
                return v
        raise KeyError(name)

    def to_dict(self) -> dict:
        return {
            "experiment": self.experiment,
            "params": self.params,
            "seed": self.seed,
            "generator": self.generator,
            "version": self.version,
            "defaults_version": self.defaults_version,
            "tables": self.tables,
            "verdicts": [v.to_dict() for v in self.verdicts],
            "pass": self.passed,
        }

    def write_json(self, fp: io.TextIOBase) -> None:
        """Write the report as indent-2 JSON and a closing newline.

        json.dump writes each encoder chunk as it is made, so the text is
        never held whole.
        """
        json.dump(self.to_dict(), fp, indent=2)
        fp.write("\n")

    def to_json(self) -> str:
        """The text :meth:`write_json` writes, as one string."""
        return json.dumps(self.to_dict(), indent=2) + "\n"

    def write_table_csv(self, fp: io.TextIOBase, name: str) -> None:
        t = self.table(name)
        meta = {
            "experiment": self.experiment,
            "table": name,
            "seed": self.seed,
            "generator": self.generator,
            "version": self.version,
            "defaults_version": self.defaults_version,
        }
        for key, value in sorted(self.params.items()):
            meta[f"param.{key}"] = value
        write_header_comments(fp, meta)
        fp.write(",".join(t["columns"]) + "\n")
        for row in t["rows"]:
            fp.write(",".join(format_value(v) for v in row) + "\n")
