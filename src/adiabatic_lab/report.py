"""Run reports and their CSV/JSON serialization.

Reports are plain data: a command echo, the resolved parameters, named
tables, method-labelled scalar values, residuals, and non-convergence
flags. Serialized output is deterministic: identical runs produce
byte-identical files (wall-clock timing is logged, never serialized).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

__all__ = ["Table", "RunReport", "emit", "report_from_json"]


def _fmt(value) -> str:
    """Full double precision, locale-independent."""
    if isinstance(value, float):
        return format(value, ".17g")
    return str(value)


@dataclass
class Table:
    """Named table with a header row; cells are scalars (complex values are
    split into paired re/im columns by the producer)."""

    name: str
    columns: list
    rows: list


@dataclass
class RunReport:
    command: str
    parameters: dict = field(default_factory=dict)
    tables: list = field(default_factory=list)
    values: dict = field(default_factory=dict)
    residuals: dict = field(default_factory=dict)
    flags: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "command": self.command,
            "parameters": self.parameters,
            "tables": [
                {"name": t.name, "columns": t.columns, "rows": t.rows} for t in self.tables
            ],
            "values": self.values,
            "residuals": self.residuals,
            "flags": self.flags,
        }


def _to_json(report: RunReport) -> str:
    return json.dumps(report.to_dict(), indent=2, sort_keys=True) + "\n"


def _to_csv(report: RunReport) -> str:
    lines = []
    for idx, table in enumerate(report.tables):
        if len(report.tables) > 1:
            if idx:
                lines.append("")
            lines.append(f"# table: {table.name}")
        lines.append(",".join(str(c) for c in table.columns))
        for row in table.rows:
            lines.append(",".join(_fmt(cell) for cell in row))
    return "\n".join(lines) + "\n"


def emit(report: RunReport, format: str, path) -> None:
    """Write the report to ``path`` as 'csv' or 'json'."""
    if format == "json":
        text = _to_json(report)
    elif format == "csv":
        text = _to_csv(report)
    else:
        raise ValueError(f"unknown format {format!r} (expected 'csv' or 'json')")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)


def report_from_json(path) -> RunReport:
    """Reload a JSON report; compares equal to the report that produced it."""
    with open(path, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    return RunReport(
        command=data["command"],
        parameters=data["parameters"],
        tables=[Table(t["name"], t["columns"], t["rows"]) for t in data["tables"]],
        values=data["values"],
        residuals=data["residuals"],
        flags=data["flags"],
    )
