"""Per-layer tracing for the benchmark, installed from outside the package.

Each traced function is replaced, at every module attribute that holds it,
by a wrapper that records a span (layer, start, end, parent) in memory.
When the run ends the spans are reduced to per-layer self times, call
counts and the extra counters below.  A layer's self time is its span's
duration minus the time covered by its child spans.

Targets that do not exist are skipped, so a refactor that renames or
removes one drops its metrics to zero instead of breaking the run.
"""

import collections
import functools
import sys
import time

import numpy as np

# layer -> (module, attribute).  Quadrature-rule generation is traced as
# part of the module that owns each rule.
TARGETS = {
    "config.load_config": ("wedgeqft.config", "load_config"),
    "sfunction.evaluate": ("wedgeqft.sfunction", "evaluate"),
    "sfunction.strip_sup_norm": ("wedgeqft.sfunction", "strip_sup_norm"),
    "sfunction.node_matrix": ("wedgeqft.sfunction", "node_matrix"),
    "fields.mass_shell": ("wedgeqft.fields", "mass_shell"),
    "fields.leggauss": ("wedgeqft.fields", "_leggauss"),
    "locality.gl_line": ("wedgeqft.locality", "_gl_line"),
    "locality.line_integral": ("wedgeqft.locality", "_line_integral"),
    "locality.verify_contour_identity": ("wedgeqft.locality",
                                         "verify_contour_identity"),
    "locality.refinement_study": ("wedgeqft.locality", "refinement_study"),
    "locality.verify_operator_commutator": ("wedgeqft.locality",
                                            "verify_operator_commutator"),
    "fock.create": ("wedgeqft.fock", "create"),
    "fock.annihilate": ("wedgeqft.fock", "annihilate"),
    "fock.symmetrize": ("wedgeqft.fock", "symmetrize"),
    "fock.apply_dn": ("wedgeqft.fock", "apply_dn"),
    "scattering.recover_smatrix": ("wedgeqft.scattering", "recover_smatrix"),
    "scattering.in_state": ("wedgeqft.scattering", "in_state"),
    "scattering.out_state": ("wedgeqft.scattering", "out_state"),
    "nuclearity.tan_rule": ("wedgeqft.nuclearity", "_tan_rule"),
    "nuclearity.singular_values": ("wedgeqft.nuclearity", "singular_values"),
    "nuclearity.trace_norm_estimate": ("wedgeqft.nuclearity",
                                       "trace_norm_estimate"),
    "nuclearity.modular_trace_norm": ("wedgeqft.nuclearity",
                                      "modular_trace_norm"),
    "nuclearity.find_s_min": ("wedgeqft.nuclearity", "find_s_min"),
    "nuclearity.log_sqrt_factorial_series": ("wedgeqft.nuclearity",
                                             "log_sqrt_factorial_series"),
}

# lru-cached functions whose cache_info() gives a layer's hit ratio
CACHES = {
    "fields.leggauss": ("wedgeqft.fields", "_leggauss"),
    "locality.gl_line": ("wedgeqft.locality", "_gl_line"),
    "nuclearity.tan_rule": ("wedgeqft.nuclearity", "_tan_rule"),
    "sfunction.node_matrix": ("wedgeqft.sfunction", "_node_matrix_cached"),
}

FOCK_KERNELS = ("fock.create", "fock.annihilate", "fock.symmetrize",
                "fock.apply_dn")

SUITES = ("verify-scattering", "verify-algebra", "verify-locality", "smatrix",
          "nuclearity-curve", "find-smin", "free-bose", "ising-fermi",
          "partition")

_MB = 1e6


def _largest_array_bytes(obj):
    """Bytes of the largest array held by a tensor, vector or wavefunction."""
    if isinstance(obj, np.ndarray):
        return obj.nbytes
    comps = getattr(obj, "components", None)
    if isinstance(comps, tuple):
        return max((c.nbytes for c in comps if isinstance(c, np.ndarray)),
                   default=0)
    values = getattr(obj, "values", None)
    if isinstance(values, np.ndarray):
        return values.nbytes
    return 0


class Tracer:
    """Span recorder plus the counters that are measured at call sites."""

    def __init__(self):
        self.spans = []          # [layer, start, end, parent index]
        self._stack = []
        self.points = 0          # mass-shell evaluation points
        self.tensor_bytes = 0    # largest array through a fock kernel
        self.nodes_max = 0       # largest Nystrom node count
        self.converged = 0       # trace-norm estimates flagged converged
        self.series_terms_max = 0
        self._caches = {}

    def _wrap(self, layer, fn):
        spans, stack = self.spans, self._stack
        observe = getattr(self, "_observe_" + layer.replace(".", "_"), None)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append([layer, time.perf_counter(), None,
                          stack[-1] if stack else None])
            stack.append(index)
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                stack.pop()
                spans[index][2] = time.perf_counter()
                # calls that raise are observed too (result None), so the
                # series length of a failed allocation is counted
                if observe is not None:
                    observe(args, result)

        return wrapper

    def _observe_fields_mass_shell(self, args, result):
        self.points += int(np.size(args[2])) if len(args) > 2 else 0

    def _observe_nuclearity_singular_values(self, args, result):
        self.nodes_max = max(self.nodes_max, int(getattr(args[0], "nodes", 0)))

    def _observe_nuclearity_trace_norm_estimate(self, args, result):
        self.converged += bool(getattr(result, "converged", False))

    def _observe_nuclearity_log_sqrt_factorial_series(self, args, result):
        # terms the O(x^2) series needs: past the peak at x^2, ~20x more
        x = float(args[0])
        if np.isfinite(x) and x > 0:
            self.series_terms_max = max(self.series_terms_max,
                                        int(x * x) + int(20 * x) + 52)

    def _observe_fock(self, args, result):
        self.tensor_bytes = max(self.tensor_bytes,
                                _largest_array_bytes(result),
                                *(_largest_array_bytes(a) for a in args))

    _observe_fock_create = _observe_fock
    _observe_fock_annihilate = _observe_fock
    _observe_fock_symmetrize = _observe_fock
    _observe_fock_apply_dn = _observe_fock

    def install(self):
        """Wrap every target at every ``wedgeqft`` module name bound to it."""
        import wedgeqft.cli  # noqa: F401  (loads config, suites and the library)

        modules = [m for name, m in sorted(sys.modules.items())
                   if name == "wedgeqft" or name.startswith("wedgeqft.")]
        # read the caches before their names are rebound to wrappers
        for layer, (mod_name, attr) in CACHES.items():
            fn = getattr(sys.modules.get(mod_name), attr, None)
            if hasattr(fn, "cache_info"):
                self._caches[layer] = fn
        for layer, (mod_name, attr) in TARGETS.items():
            original = getattr(sys.modules.get(mod_name), attr, None)
            if original is None:
                continue
            wrapper = self._wrap(layer, original)
            for mod in modules:
                for name, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, name, wrapper)

    def metrics(self):
        """Per-layer totals: self seconds, calls and the extra counters."""
        self_time = {}
        calls = {}
        child_time = [0.0] * len(self.spans)
        objective_evals = 0
        for layer, start, end, parent in self.spans:
            if parent is not None:
                child_time[parent] += end - start
                if (layer == "nuclearity.modular_trace_norm"
                        and self.spans[parent][0] == "nuclearity.find_s_min"):
                    objective_evals += 1
        for (layer, start, end, _), inner in zip(self.spans, child_time):
            self_time[layer] = self_time.get(layer, 0.0) + (end - start - inner)
            calls[layer] = calls.get(layer, 0) + 1
        out = {f"{layer}.s": self_time.get(layer, 0.0) for layer in TARGETS}
        out.update({f"{layer}.calls": calls.get(layer, 0)
                    for layer in TARGETS})
        for layer, fn in self._caches.items():
            info = fn.cache_info()
            out[f"{layer}.hits"] = info.hits
            out[f"{layer}.misses"] = info.misses
        out["fields.mass_shell.points"] = self.points
        out["fock.tensor_bytes_max"] = self.tensor_bytes
        out["nuclearity.singular_values.nodes_max"] = self.nodes_max
        out["nuclearity.trace_norm_estimate.converged"] = self.converged
        out["nuclearity.find_s_min.objective_evals"] = objective_evals
        out["nuclearity.log_sqrt_factorial_series.terms_max"] = \
            self.series_terms_max
        out["spans"] = len(self.spans)
        return out


# per-layer metrics the benchmark reports, in BENCHMARK.json order
def layer_metrics(totals, suite_seconds, overhead):
    """Reduce summed tracer totals to the named per-layer metrics.

    A total that is missing (a traced process that was killed before it
    wrote its spans) counts as zero.
    """
    totals = collections.defaultdict(int, totals)

    def ratio(num, den):
        return num / den if den else 0.0

    def hit_ratio(layer):
        hits = totals.get(f"{layer}.hits", 0)
        return ratio(hits, hits + totals.get(f"{layer}.misses", 0))

    m = {}

    def put(name, value, unit):
        m[name] = {"value": value, "unit": unit}

    put("fields.mass_shell.s", totals["fields.mass_shell.s"], "s")
    put("fields.mass_shell.calls", totals["fields.mass_shell.calls"], "count")
    put("fields.mass_shell.points", totals["fields.mass_shell.points"], "count")
    for layer in ("fields.leggauss", "locality.gl_line", "nuclearity.tan_rule"):
        put(f"{layer}.s", totals[f"{layer}.s"], "s")
        put(f"{layer}.hit_ratio", hit_ratio(layer), "1")
    for layer in ("locality.verify_contour_identity", "locality.refinement_study",
                  "locality.verify_operator_commutator"):
        put(f"{layer}.s", totals[f"{layer}.s"], "s")
    put("locality.line_integrals", totals["locality.line_integral.calls"],
        "count")
    for layer in FOCK_KERNELS:
        put(f"{layer}.s", totals[f"{layer}.s"], "s")
        put(f"{layer}.calls", totals[f"{layer}.calls"], "count")
    put("fock.peak_tensor_mb", totals["fock.tensor_bytes_max"] / _MB,
        "MB-computed")
    for layer in ("scattering.recover_smatrix", "scattering.in_state",
                  "scattering.out_state"):
        put(f"{layer}.s", totals[f"{layer}.s"], "s")
    put("nuclearity.singular_values.s", totals["nuclearity.singular_values.s"],
        "s")
    put("nuclearity.singular_values.calls",
        totals["nuclearity.singular_values.calls"], "count")
    put("nuclearity.singular_values.nodes_max",
        totals["nuclearity.singular_values.nodes_max"], "count")
    put("nuclearity.trace_norm_estimate.s",
        totals["nuclearity.trace_norm_estimate.s"], "s")
    put("nuclearity.trace_norm_estimate.converged_ratio",
        ratio(totals["nuclearity.trace_norm_estimate.converged"],
              totals["nuclearity.trace_norm_estimate.calls"]), "1")
    put("nuclearity.find_s_min.objective_evals",
        totals["nuclearity.find_s_min.objective_evals"], "count")
    put("nuclearity.log_sqrt_factorial_series.s",
        totals["nuclearity.log_sqrt_factorial_series.s"], "s")
    put("nuclearity.log_sqrt_factorial_series.terms_max",
        totals["nuclearity.log_sqrt_factorial_series.terms_max"], "count")
    for layer in ("sfunction.evaluate", "sfunction.strip_sup_norm",
                  "sfunction.node_matrix"):
        put(f"{layer}.s", totals[f"{layer}.s"], "s")
    put("sfunction.node_matrix.hit_ratio", hit_ratio("sfunction.node_matrix"),
        "1")
    for suite in SUITES:
        put(f"suites.{suite}.s", suite_seconds.get(suite, 0.0), "s")
    put("config.load_config.s", totals["config.load_config.s"], "s")
    put("trace.overhead.report_s", overhead["report_s"], "s")
    put("trace.overhead.model_s", overhead["model_s"], "s")
    return m


def merge_totals(parts):
    """Sum tracer totals from several processes; maxima stay maxima."""
    out = {}
    for part in parts:
        for key, value in part.items():
            if key.endswith("_max"):
                out[key] = max(out.get(key, 0), value)
            else:
                out[key] = out.get(key, 0) + value
    return out
