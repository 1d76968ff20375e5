"""Machine-readable experiment reports with explicit pass/fail rows."""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from itertools import islice
from typing import TextIO


@dataclass
class Report:
    experiment: str
    params: dict
    seed: int | None
    # each row is the JSON object render_json prints; a pass of None marks an informational row
    rows: list[dict] = field(default_factory=list)

    def add(
        self,
        label: str,
        value: float | None,
        bound: float | None = None,
        passed: bool | None = None,
        stderr: float | None = None,
    ) -> None:
        self.rows.append({
            "label": label,
            "value": None if value is None else float(value),
            "bound": None if bound is None else float(bound),
            "pass": None if passed is None else bool(passed),
            "stderr": None if stderr is None else float(stderr),
        })

    def exit_code(self) -> int:
        return 2 if any(r["pass"] is False for r in self.rows) else 0


def _fmt(x: float | None) -> str:
    if x is None:
        return ""
    return f"{x:.12g}"


def render_text(report: Report) -> str:
    lines = [f"experiment: {report.experiment}"]
    if report.params:
        lines.append(
            "params: " + " ".join(f"{k}={v}" for k, v in report.params.items())
        )
    if report.seed is not None:
        lines.append(f"seed: {report.seed}")
    width = max([52, *(len(r["label"]) for r in report.rows)])  # the label column
    se_width = max([12, *(len(_fmt(r["stderr"])) for r in report.rows)])  # the stderr column
    lines.append(
        f"{'label':<{width}} {'value':>20} {'bound':>20} {'status':>6} {'stderr':>{se_width}}"
    )
    for r in report.rows:
        status = "" if r["pass"] is None else ("PASS" if r["pass"] else "FAIL")
        lines.append(
            f"{r['label']:<{width}} {_fmt(r['value']):>20} {_fmt(r['bound']):>20} "
            f"{status:>6} {_fmt(r['stderr']):>{se_width}}"
        )
    n_checked = sum(r["pass"] is not None for r in report.rows)
    n_failed = sum(r["pass"] is False for r in report.rows)
    lines.append(f"checks: {n_checked - n_failed}/{n_checked} passed")
    return "\n".join(lines)


def render_json(report: Report, out: TextIO) -> None:
    """Write the report to `out` as indented JSON and a newline, as it is
    encoded: about 4096 chunks a write, so that the whole text is never held."""
    payload = {
        "experiment": report.experiment,
        "params": report.params,
        "seed": report.seed,
        "rows": report.rows,
    }
    chunks = json.JSONEncoder(indent=2).iterencode(payload)
    while batch := list(islice(chunks, 4096)):
        out.write("".join(batch))
    out.write("\n")
