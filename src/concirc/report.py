"""Run records and the two output formats.

Two record kinds keep pass/fail semantics separate from descriptive output:

* CHECK — a numerical identity that must hold for the given input; carries a
  residual and a status, and any failing CHECK fails the run (exit code 1).
* VERDICT — a classification outcome (is the generator concircular? which
  Einstein-type families vanish? what is the fluid regime?).  Verdicts have
  no pass/fail meaning: "not concircular" is a finding, not an error.

Machine format emits one line per record::

    CHECK <name> point=<index> residual=<float-repr> status=PASS|FAIL
    VERDICT <name> point=<index> value=<token>

Aggregate records use point=-1 (worst residual over all points for checks,
NaN if any point's residual is NaN; the common value or "mixed" for
verdicts).  Floats are formatted with repr
so they round-trip through float() exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


def fmt_float(x: float) -> str:
    return repr(float(x))


def fmt_value(v) -> str:
    if v is None:
        return "none"
    if isinstance(v, (bool, np.bool_)):
        return "True" if v else "False"
    if isinstance(v, (float, np.floating)):
        return fmt_float(v)
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    return str(v)


@dataclass(frozen=True)
class CheckRecord:
    name: str
    point: int                 # -1 for the aggregate over all points
    residual: float
    passed: bool

    def machine(self) -> str:
        return "CHECK %s point=%d residual=%s status=%s" % (
            self.name, self.point, fmt_float(self.residual),
            "PASS" if self.passed else "FAIL")


@dataclass(frozen=True)
class VerdictRecord:
    name: str
    point: int
    value: object

    def machine(self) -> str:
        return "VERDICT %s point=%d value=%s" % (
            self.name, self.point, fmt_value(self.value))


class Report:
    """Accumulates records per point, then aggregates into point=-1 rows."""

    def __init__(self, tol: float):
        self.tol = tol
        self.checks: list[CheckRecord] = []
        self.verdicts: list[VerdictRecord] = []
        self.points: list[np.ndarray] = []
        self.preamble: list[str] = []

    def add_point(self, point: np.ndarray) -> int:
        self.points.append(np.asarray(point, dtype=float))
        return len(self.points) - 1

    def check(self, name: str, point: int, residual: float):
        self.checks.append(CheckRecord(name, point, float(residual),
                                       float(residual) <= self.tol))

    def verdict(self, name: str, point: int, value):
        self.verdicts.append(VerdictRecord(name, point, value))

    # -- aggregation ------------------------------------------------------

    def _ordered_names(self, records) -> list:
        names = []
        for rec in records:
            if rec.point >= 0 and rec.name not in names:
                names.append(rec.name)
        return names

    def aggregate(self):
        """Append the point=-1 summary rows (idempotent per run)."""
        for name in self._ordered_names(self.checks):
            rows = [c for c in self.checks if c.name == name and c.point >= 0]
            # max() over a list holding NaN depends on where the NaN sits
            if any(math.isnan(c.residual) for c in rows):
                worst = math.nan
            else:
                worst = max(c.residual for c in rows)
            self.checks.append(CheckRecord(name, -1, worst,
                                           all(c.passed for c in rows)))
        for name in self._ordered_names(self.verdicts):
            rows = [v for v in self.verdicts
                    if v.name == name and v.point >= 0]
            values = {fmt_value(v.value) for v in rows}
            common = rows[0].value if len(values) == 1 else "mixed"
            self.verdicts.append(VerdictRecord(name, -1, common))

    @property
    def ok(self) -> bool:
        return all(c.passed for c in self.checks)

    # -- rendering --------------------------------------------------------

    def render(self, fmt: str) -> str:
        if fmt == "machine":
            return self.render_machine()
        if fmt == "text":
            return self.render_text()
        raise ValueError("unknown format %r" % fmt)

    def render_machine(self) -> str:
        lines = [c.machine() for c in self.checks]
        lines += [v.machine() for v in self.verdicts]
        return "\n".join(lines) + "\n"

    def render_text(self) -> str:
        lines = list(self.preamble)
        for idx, pt in enumerate(self.points):
            lines.append("")
            lines.append("point %d: %s" % (
                idx, " ".join(fmt_float(x) for x in pt)))
            for c in self.checks:
                if c.point == idx:
                    lines.append("  [%s] %-34s residual %.3e"
                                 % ("PASS" if c.passed else "FAIL",
                                    c.name, c.residual))
            for v in self.verdicts:
                if v.point == idx:
                    lines.append("  %-41s = %s" % (v.name, fmt_value(v.value)))
        lines.append("")
        lines.append("summary over %d point(s), tolerance %s:"
                     % (len(self.points), fmt_float(self.tol)))
        for c in self.checks:
            if c.point == -1:
                lines.append("  [%s] %-34s worst residual %.3e"
                             % ("PASS" if c.passed else "FAIL",
                                c.name, c.residual))
        for v in self.verdicts:
            if v.point == -1:
                lines.append("  %-41s = %s" % (v.name, fmt_value(v.value)))
        lines.append("")
        lines.append("result: %s" % ("PASS" if self.ok else "FAIL"))
        return "\n".join(lines) + "\n"
