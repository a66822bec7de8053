"""Per-layer tracing for the benchmark's traced run.

Layers are the toricgm modules.  The tracer wraps module attributes: the
cross-module call sites inside the library (e.g. the name
`buchberger_binomials` as bound in `toricgm.toric`) and the public entry
points the workloads call.  Wrappers are installed around one traced
operation at a time and restored right after it, so untraced operations
run the library unmodified.  Spans are aggregated in memory: calls, total
time (outermost span of a name only, so recursion is not counted twice)
and self time (duration minus the time covered by child spans).
"""

import importlib
from collections import defaultdict
from contextlib import contextmanager
from functools import wraps
from time import perf_counter

# (module whose attribute is wrapped, attribute, span name "<layer>.<function>")
CALL_SITES = (
    ("toricgm.toric", "buchberger_binomials", "polynomials.buchberger_binomials"),
    ("toricgm.toric", "integer_kernel_lattice", "linalg.integer_kernel_lattice"),
    ("toricgm.mle", "compute_toric_basis", "toric.compute_toric_basis"),
    ("toricgm.mle", "buchberger", "polynomials.buchberger"),
    ("toricgm.mle", "poly_reduce", "polynomials.reduce"),
    ("toricgm.mle", "eliminate_to_triangular", "polynomials.eliminate_to_triangular"),
    ("toricgm.mle", "isolate_positive_roots", "mle.isolate_positive_roots"),
    ("toricgm.factorization", "find_facial_certificate",
     "simplex.find_facial_certificate"),
    ("toricgm.factorization", "integer_kernel_lattice", "linalg.integer_kernel_lattice"),
)
ENTRY_POINTS = (
    ("toricgm.toric", "compute_toric_basis", "toric.compute_toric_basis"),
    ("toricgm.graphs", "build_graph_matrix", "graphs.build_graph_matrix"),
    ("toricgm.models", "build_loglinear_matrix", "models.build_loglinear_matrix"),
    ("toricgm.independence", "pairwise_ideal", "independence.pairwise_ideal"),
    ("toricgm.factorization", "classify", "factorization.classify"),
    ("toricgm.factorization", "in_variety_kernel_oracle",
     "factorization.in_variety_kernel_oracle"),
    ("toricgm.factorization", "limit_sequence", "factorization.limit_sequence"),
    ("toricgm.mle", "assemble_mle_system", "mle.assemble_mle_system"),
    ("toricgm.mle", "solve_mle_exact", "mle.solve_mle_exact"),
    ("toricgm.mle", "rational_root_check", "mle.rational_root_check"),
    ("toricgm.mle", "ips_fit", "mle.ips_fit"),
)

# Per-layer metrics, per traced operation (runs-per-basis: per basis).
# "<span>.calls" and "<span>.s" read one span name, "<layer>.self_s" the
# self time of all spans of a layer.
PER_LAYER = (
    ("polynomials.buchberger_binomials.calls", "calls/op"),
    ("polynomials.buchberger_binomials.s", "s/op"),
    ("toric.buchberger_runs_per_basis", "runs/basis"),
    ("linalg.integer_kernel_lattice.calls", "calls/op"),
    ("linalg.integer_kernel_lattice.s", "s/op"),
    ("toric.compute_toric_basis.calls", "calls/op"),
    ("toric.compute_toric_basis.s", "s/op"),
    ("toric.self_s", "s/op"),
    ("graphs.build_graph_matrix.s", "s/op"),
    ("independence.pairwise_ideal.s", "s/op"),
    ("factorization.classify.s", "s/op"),
    ("factorization.in_variety_kernel_oracle.s", "s/op"),
    ("factorization.limit_sequence.s", "s/op"),
    ("factorization.self_s", "s/op"),
    ("simplex.find_facial_certificate.calls", "calls/op"),
    ("simplex.find_facial_certificate.s", "s/op"),
    ("mle.assemble_mle_system.s", "s/op"),
    ("mle.solve_mle_exact.s", "s/op"),
    ("mle.rational_root_check.s", "s/op"),
    ("mle.isolate_positive_roots.s", "s/op"),
    ("mle.ips_fit.s", "s/op"),
    ("mle.self_s", "s/op"),
    ("polynomials.buchberger.s", "s/op"),
    ("polynomials.reduce.calls", "calls/op"),
    ("polynomials.reduce.s", "s/op"),
    ("polynomials.eliminate_to_triangular.s", "s/op"),
    ("trace.overhead_share", "ratio"),
)


class Tracer:
    """Aggregates the spans of every call made while it is installed."""

    def __init__(self):
        self.calls = defaultdict(int)
        self.total = defaultdict(float)
        self.self_time = defaultdict(float)
        self._stack = []      # open spans: [name, time covered by children]

    def wrap(self, name, fn):
        @wraps(fn)
        def traced(*args, **kwargs):
            outermost = all(frame[0] != name for frame in self._stack)
            frame = [name, 0.0]
            self._stack.append(frame)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                self._stack.pop()
                self.calls[name] += 1
                if outermost:
                    self.total[name] += elapsed
                self.self_time[name] += elapsed - frame[1]
                if self._stack:
                    self._stack[-1][1] += elapsed
        return traced

    @contextmanager
    def installed(self):
        """Wrap every call site and entry point; restore them on exit."""
        originals = []
        try:
            for module_name, attr, span in CALL_SITES + ENTRY_POINTS:
                module = importlib.import_module(module_name)
                fn = getattr(module, attr)
                originals.append((module, attr, fn))
                setattr(module, attr, self.wrap(span, fn))
            yield self
        finally:
            for module, attr, fn in reversed(originals):
                setattr(module, attr, fn)

    def layer_self(self, layer):
        return sum(t for name, t in self.self_time.items()
                   if name.split(".")[0] == layer)

    def metrics(self, ops, overhead_share, scale):
        """Every PER_LAYER metric, as {name: (value, unit)}; times are
        multiplied by `scale` (the run's speed scale, see speed.py)."""
        bases = self.calls["toric.compute_toric_basis"]
        out = {}
        for name, unit in PER_LAYER:
            if name == "trace.overhead_share":
                value = overhead_share
            elif name == "toric.buchberger_runs_per_basis":
                value = self.calls["polynomials.buchberger_binomials"] / bases \
                    if bases else 0.0
            elif name.endswith(".self_s"):
                value = self.layer_self(name[:-len(".self_s")]) * scale / ops
            elif name.endswith(".calls"):
                value = self.calls[name[:-len(".calls")]] / ops
            else:
                value = self.total[name[:-len(".s")]] * scale / ops
            out[name] = (value, unit)
        return out
