"""Spans recorded around calls into concirc, and the per-layer numbers
derived from them.

A ``Tracer`` replaces chosen concirc functions with wrappers that append one
span per call: name, start, end, parent span, a count of expression-jet node
evaluations made while it was the innermost span, a value measured from the
result, and the exception type if the call raised.  Spans stay in memory and
are written out once, when the traced command has returned.

concirc modules bind names with ``from .x import y``, so the same function
object sits in several module namespaces (``classify.build_connection`` is
the one that the finite-difference rebuilds go through).  ``install`` swaps
every binding of the original object, in every loaded concirc module and
class, including tuples such as ``selftest.CRITERIA``; ``restore`` swaps them
back the same way.
"""

from __future__ import annotations

import importlib
import sys
import time

# span record fields
NAME, START, END, PARENT, NODES, VALUE, ERROR = range(7)

# (module, attribute path) pairs, one span per call.
STAMP_SPANS = (
    ("catalog", "build_case"),
    ("config", "load_config"),
    ("analysis", "run_analysis"),
    ("report", "Report.render"),
)

FULL_SPANS = STAMP_SPANS + (
    ("expr", "parse"),
    ("geometry", "MetricSpec.jets"),
    ("geometry", "VectorFieldSpec.jets"),
    ("geometry", "frame_at"),
    ("connection", "build_connection"),
    ("connection", "check_concircular"),
    ("connection", "s_concircular_check"),
    ("connection", "nabla1_P"),
    ("connection", "identity_suite"),
    ("connection", "lie_g_nonsym"),
    ("curvature", "curvature_family"),
    ("curvature", "closed_form_ricci"),
    ("curvature", "closed_form_scalar"),
    ("curvature", "einstein_relations"),
    ("classify", "classify_vector"),
    ("classify", "classify_quasi_einstein"),
    ("classify", "einstein_type"),
    ("classify", "quasi_einstein_equivalences"),
    ("classify", "grw_detect"),
    ("classify", "grw_identity_suite"),
    ("classify", "perfect_fluid_kind"),
    ("classify", "classify_point"),
    ("relativity", "stress_energy"),
    ("relativity", "efe_residual"),
    ("relativity", "div_symmetric_2tensor"),
    ("relativity", "div_pi_pi"),
    ("relativity", "div_tau"),
    ("relativity", "phantom_verdict"),
    ("fdcheck", "fd_gradient"),
    ("fdcheck", "fd_hessian"),
    ("fdcheck", "fd_jacobian"),
    ("fdcheck", "fd_metric_gradient"),
    ("fdcheck", "fd_gamma"),
    ("fdcheck", "fd_dgamma"),
    ("fdcheck", "fd_riemann"),
    ("sampling", "draw_point"),
    ("sampling", "sample_points"),
    ("analysis", "gather_points"),
    ("analysis", "_evaluate_point"),
    ("report", "Report.aggregate"),
)

# Expression-node jet methods: counted, not timed (there are ~10^3 per point).
JET_NODES = ("Num", "Var", "Neg", "Bin", "Call")

# What a span keeps from its call's result, by span name.
_MEASURES = {
    "analysis.run_analysis": lambda out, args: len(out.points),
    "report.Report.render": lambda out, args: (len(args[0].checks)
                                               + len(args[0].verdicts)),
}


class Tracer:
    """Span recorder for one process; ``install`` / ``restore`` bracket it."""

    def __init__(self):
        self.names: list[str] = []
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._originals: dict[int, object] = {}   # id(wrapper) -> original
        self._wrappers: dict[int, object] = {}    # id(original) -> wrapper

    def _span(self, name: str, fn):
        nid = len(self.names)
        self.names.append(name)
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns
        measure = _MEASURES.get(name)

        def wrapper(*args, **kwargs):
            rec = [nid, clock(), 0, stack[-1] if stack else -1, 0, None, None]
            stack.append(len(spans))
            spans.append(rec)
            try:
                out = fn(*args, **kwargs)
            except BaseException as exc:
                rec[ERROR] = type(exc).__name__
                raise
            finally:
                rec[END] = clock()
                stack.pop()
            if measure is not None:
                rec[VALUE] = measure(out, args)
            return out

        return wrapper

    def _count(self, fn):
        spans, stack = self.spans, self._stack

        def wrapper(*args, **kwargs):
            if stack:
                spans[stack[-1]][NODES] += 1
            return fn(*args, **kwargs)

        return wrapper

    def install(self, full: bool):
        """Wrap the stamp functions, or with ``full`` every listed layer
        function, each jet method and each selftest criterion, wherever
        concirc binds them."""
        if full:
            import_all()
        pairs = [(_resolve(module, path), "%s.%s" % (module, path))
                 for module, path in (FULL_SPANS if full else STAMP_SPANS)]
        if full:
            selftest = sys.modules["concirc.selftest"]
            pairs += [(fn, "selftest.criterion%d" % (i + 1))
                      for i, fn in enumerate(selftest.CRITERIA)]
            expr = sys.modules["concirc.expr"]
            pairs += [(vars(getattr(expr, cls))["jet"], None)
                      for cls in JET_NODES]
        for fn, name in pairs:
            wrapper = self._span(name, fn) if name else self._count(fn)
            self._wrappers[id(fn)] = wrapper
            self._originals[id(wrapper)] = fn
        _rebind(self._wrappers)

    def restore(self):
        _rebind(self._originals)

    def dump(self) -> dict:
        return {"names": self.names, "spans": self.spans}


def import_all():
    """Import every concirc module, so that ``install`` reaches them all.
    The CLI imports ``selftest`` (and with it ``fdcheck``) only on demand."""
    for name in ("cli", "selftest", "fdcheck"):
        importlib.import_module("concirc." + name)


def _resolve(module: str, path: str):
    obj = importlib.import_module("concirc." + module)
    parts = path.split(".")
    for part in parts[:-1]:
        obj = getattr(obj, part)
    return vars(obj)[parts[-1]]


def _rebind(table: dict):
    """Replace each object whose id is a key of ``table`` by its value, in
    every concirc module and class namespace and inside their tuples."""
    owners = [m for n, m in list(sys.modules.items())
              if m is not None and (n == "concirc" or n.startswith("concirc."))]
    owners += [v for m in owners for v in vars(m).values()
               if isinstance(v, type)
               and getattr(v, "__module__", "").startswith("concirc")]
    for owner in owners:
        for attr, val in list(vars(owner).items()):
            if id(val) in table:
                setattr(owner, attr, table[id(val)])
            elif isinstance(val, tuple) and any(id(v) in table for v in val):
                setattr(owner, attr, tuple(table.get(id(v), v) for v in val))


# ---------------------------------------------------------------------------
# derivation
# ---------------------------------------------------------------------------


def self_times(spans) -> list[int]:
    """Each span's duration minus the part of it that child spans cover."""
    children: list[list[int]] = [[] for _ in spans]
    for i, s in enumerate(spans):
        if s[PARENT] >= 0:
            children[s[PARENT]].append(i)
    out = []
    for i, s in enumerate(spans):
        covered, reach = 0, s[START]
        for c in sorted(children[i], key=lambda j: spans[j][START]):
            lo, hi = max(spans[c][START], reach), min(spans[c][END], s[END])
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append(s[END] - s[START] - covered)
    return out


class SpanIndex:
    """Lookups over one dumped trace."""

    def __init__(self, dumped: dict):
        self.names = dumped["names"]
        self.spans = dumped["spans"]
        self.selfs = self_times(self.spans)

    def ids(self, *prefixes) -> set:
        return {i for i, n in enumerate(self.names)
                if any(n == p or n.startswith(p + ".") for p in prefixes)}

    def nearest(self, ids: set) -> list[int]:
        """For each span, the index of its nearest strict ancestor whose name
        is in ``ids``, or -1.  Parents precede children in the list."""
        out = []
        for s in self.spans:
            p = s[PARENT]
            out.append(-1 if p < 0 else (p if self.spans[p][NAME] in ids
                                         else out[p]))
        return out

    def outer_ms(self, *prefixes) -> float:
        """Time inside the named spans, not counting nested ones twice."""
        ids = self.ids(*prefixes)
        anc = self.nearest(ids)
        return sum(s[END] - s[START] for s, a in zip(self.spans, anc)
                   if s[NAME] in ids and a < 0) / 1e6

    def self_ms(self, *prefixes) -> float:
        ids = self.ids(*prefixes)
        return sum(t for s, t in zip(self.spans, self.selfs)
                   if s[NAME] in ids) / 1e6

    def count(self, prefix: str, where=None) -> int:
        ids = self.ids(prefix)
        return sum(1 for i, s in enumerate(self.spans)
                   if s[NAME] in ids and (where is None or where(i)))


def layer_metrics(dumped: dict) -> dict:
    """Per-layer numbers of one traced process.

    ``*_ms`` are totals over the whole process.  ``*_per_point`` and the
    gate and useful-frame ratios count only spans inside
    ``analysis.run_analysis``, divided by the points it analysed.
    """
    ix = SpanIndex(dumped)
    spans = ix.spans
    in_run = ix.nearest(ix.ids("analysis.run_analysis"))
    fd_anc = ix.nearest(ix.ids("fdcheck.fd_jacobian"))
    point_id = ix.ids("analysis._evaluate_point")
    build_id = ix.ids("connection.build_connection")
    points = ix.count("analysis._evaluate_point")

    def in_analysis(i):
        return in_run[i] >= 0

    def per_point(n):
        return n / points if points else 0.0

    def parent_name(i):
        p = spans[i][PARENT]
        return spans[p][NAME] if p >= 0 else -1

    def useful_frame(i):
        p = spans[i][PARENT]
        return p >= 0 and spans[p][NAME] in build_id \
            and parent_name(p) in point_id

    def gated_points(child):
        ids = ix.ids(child)
        return len({spans[i][PARENT] for i in range(len(spans))
                    if spans[i][NAME] in ids and parent_name(i) in point_id})

    frames = ix.count("geometry.frame_at", in_analysis)
    rejects = ix.count(
        "geometry.frame_at",
        lambda i: spans[i][ERROR] == "SingularMetricError"
        and parent_name(i) in ix.ids("analysis.gather_points"))
    render_ids = ix.ids("report.Report.render")
    out = {
        "expr.parse_ms": ix.outer_ms("expr.parse"),
        "expr.parse_calls": ix.count("expr.parse"),
        "expr.jet_node_evals_per_point": per_point(
            sum(s[NODES] for i, s in enumerate(spans) if in_analysis(i))),
        "geometry.metric_jets_ms": ix.outer_ms("geometry.MetricSpec.jets"),
        "geometry.metric_jets_calls_per_point": per_point(
            ix.count("geometry.MetricSpec.jets", in_analysis)),
        "geometry.vector_jets_ms": ix.outer_ms(
            "geometry.VectorFieldSpec.jets"),
        "geometry.frame_at_self_ms": ix.self_ms("geometry.frame_at"),
        "geometry.frame_at_calls_per_point": per_point(frames),
        "connection.build_connection_self_ms": ix.self_ms(
            "connection.build_connection"),
        "connection.build_connection_calls_per_point": per_point(
            ix.count("connection.build_connection", in_analysis)),
        "connection.gated_identities_ms": ix.outer_ms(
            "connection.nabla1_P", "connection.lie_g_nonsym",
            "connection.identity_suite"),
        "classify.classify_vector_self_ms": ix.self_ms(
            "classify.classify_vector"),
        "classify.fd_rebuilds_per_point": per_point(ix.count(
            "connection.build_connection",
            lambda i: in_analysis(i) and fd_anc[i] >= 0)),
        "classify.useful_frame_ratio": (
            ix.count("geometry.frame_at", useful_frame) / frames
            if frames else 0.0),
        "classify.verdicts_ms": ix.outer_ms(
            "classify.classify_quasi_einstein", "classify.einstein_type",
            "classify.quasi_einstein_equivalences", "classify.grw_detect",
            "classify.grw_identity_suite", "classify.perfect_fluid_kind"),
        "curvature.curvature_family_ms": ix.outer_ms(
            "curvature.curvature_family"),
        "curvature.closed_forms_ms": ix.outer_ms(
            "curvature.closed_form_ricci", "curvature.closed_form_scalar",
            "curvature.einstein_relations"),
        "relativity.ms": ix.outer_ms("relativity"),
        "sampling.draws": ix.count("sampling.draw_point"),
        "sampling.singular_rejects": rejects,
        "analysis.self_ms": ix.self_ms(
            "analysis.run_analysis", "analysis.gather_points",
            "analysis._evaluate_point"),
        "analysis.concircular_gate_ratio": per_point(
            gated_points("connection.nabla1_P")),
        "analysis.grw_gate_ratio": per_point(
            gated_points("classify.grw_identity_suite")),
        "report.records": sum(s[VALUE] or 0 for s in spans
                              if s[NAME] in render_ids),
        "report.aggregate_ms": ix.outer_ms("report.Report.aggregate"),
        "report.render_ms": ix.outer_ms("report.Report.render"),
        "fdcheck.ms": ix.outer_ms("fdcheck"),
    }
    for k in range(1, 9):
        out["selftest.criterion%d_ms" % k] = ix.outer_ms(
            "selftest.criterion%d" % k)
    return out


def stamp_metrics(dumped: dict, import_s: float) -> dict:
    """setup_s and the analysed-points rate of one untraced process."""
    ix = SpanIndex(dumped)
    setup = ix.ids("catalog.build_case", "config.load_config")
    first = next((s for s in ix.spans if s[NAME] in setup), None)
    run_ids = ix.ids("analysis.run_analysis")
    points = sum(s[VALUE] or 0 for s in ix.spans if s[NAME] in run_ids)
    busy_ms = ix.outer_ms("analysis.run_analysis", "report.Report.render")
    return {
        "setup_s": import_s + ((first[END] - first[START]) / 1e9
                               if first else 0.0),
        "points": points,
        "points_per_s": points / (busy_ms / 1e3) if busy_ms else 0.0,
    }
