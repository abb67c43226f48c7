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

Both renderers write to a stream: ``Report.render(fmt, stream)`` hands each
line to ``stream.write`` as soon as it is formatted, so rendering holds no
more than one line beyond the records themselves.  The CLI passes
``sys.stdout``; callers that want the text pass an ``io.StringIO``.
"""

from __future__ import annotations

import math

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


# The records are not slotted on purpose.  Slots make the text render's
# per-point scan of the records about 30% faster at 1024 points, and until
# perfbench reads each child's own peak RSS that speed-up reads as a
# peak_rss_mb regression (ROADMAP, "Peak RSS is the binding gate").


class CheckRecord:
    def __init__(self, name: str, point: int, residual: float, passed: bool):
        self.name = name
        self.point = point         # -1 for the aggregate over all points
        self.residual = residual
        self.passed = passed

    def machine(self) -> str:
        return "CHECK %s point=%d residual=%s status=%s" % (
            self.name, self.point, fmt_float(self.residual),
            "PASS" if self.passed else "FAIL")


class VerdictRecord:
    def __init__(self, name: str, point: int, value):
        self.name = name
        self.point = point
        self.value = value

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

    def aggregate(self):
        """Append the point=-1 summary rows; call once, after the last point.

        One pass over the records.  Names keep their first-appearance order.
        A check's worst residual is NaN once any point's residual is NaN;
        otherwise the first maximum wins, as with max().
        """
        checks: dict[str, list] = {}      # name -> [worst, every point passed]
        for c in self.checks:
            if c.point < 0:
                continue
            acc = checks.get(c.name)
            if acc is None:
                checks[c.name] = [c.residual, c.passed]
                continue
            if math.isnan(c.residual) or c.residual > acc[0]:
                acc[0] = c.residual       # '>' is False once acc[0] is NaN
            acc[1] = acc[1] and c.passed
        verdicts: dict[str, list] = {}    # name -> [first value, its token, mixed]
        for v in self.verdicts:
            if v.point < 0:
                continue
            acc = verdicts.get(v.name)
            if acc is None:
                verdicts[v.name] = [v.value, fmt_value(v.value), False]
            elif not acc[2] and fmt_value(v.value) != acc[1]:
                acc[2] = True
        for name, (worst, passed) in checks.items():
            self.checks.append(CheckRecord(name, -1, worst, passed))
        for name, (first, _, mixed) in verdicts.items():
            self.verdicts.append(
                VerdictRecord(name, -1, "mixed" if mixed else first))

    @property
    def ok(self) -> bool:
        return all(c.passed for c in self.checks)

    # -- rendering --------------------------------------------------------

    def render(self, fmt: str, stream) -> None:
        """Write the report to ``stream`` (anything with ``write``) line by
        line, as each line is formatted; nothing is joined or returned."""
        if fmt == "machine":
            self._machine(stream.write)
        elif fmt == "text":
            self._text(stream.write)
        else:
            raise ValueError("unknown format %r" % fmt)

    def _machine(self, write):
        if not self.checks and not self.verdicts:
            write("\n")                   # an empty report is one blank line
            return
        for c in self.checks:
            write(c.machine() + "\n")
        for v in self.verdicts:
            write(v.machine() + "\n")

    def _text(self, write):
        for line in self.preamble:
            write(line + "\n")
        for idx, pt in enumerate(self.points):
            write("\npoint %d: %s\n" % (
                idx, " ".join(fmt_float(x) for x in pt)))
            for c in self.checks:
                if c.point == idx:
                    write("  [%s] %-34s residual %.3e\n"
                          % ("PASS" if c.passed else "FAIL",
                             c.name, c.residual))
            for v in self.verdicts:
                if v.point == idx:
                    write("  %-41s = %s\n" % (v.name, fmt_value(v.value)))
        write("\nsummary over %d point(s), tolerance %s:\n"
              % (len(self.points), fmt_float(self.tol)))
        for c in self.checks:
            if c.point == -1:
                write("  [%s] %-34s worst residual %.3e\n"
                      % ("PASS" if c.passed else "FAIL",
                         c.name, c.residual))
        for v in self.verdicts:
            if v.point == -1:
                write("  %-41s = %s\n" % (v.name, fmt_value(v.value)))
        write("\nresult: %s\n" % ("PASS" if self.ok else "FAIL"))
