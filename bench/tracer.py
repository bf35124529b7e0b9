"""Spans and counts around calls into trapcool, recorded from outside the package.

A traced pass replaces module-level functions of trapcool with wrappers
that record one span per call: (trace id, parent span, name, start, end).
The wrapper is installed under the same name in every trapcool module that
holds the function (`trapcool.cli.run_trajectory` as well as
`trapcool.sme.run_trajectory`), so calls made inside the package are seen
too. Observers attached to a target record values at the call boundary
(superoperator sizes, kernel residuals, step counts) after the span has
closed, so their cost lands in the tracing overhead, not in a layer.

A target that no longer exists is reported as absent; the run goes on.
"""
import functools
import statistics
import sys
import time

# layer -> module-level function names to wrap; the span name is "layer.name"
TARGETS = {
    "hilbert": (
        "identity", "annihilation", "creation", "number_op", "quadrature",
        "two_level_ops", "tensor", "fock_state", "thermal_state",
        "coherent_state", "expectation", "partial_trace", "trace_norm",
    ),
    "models": (
        "reduced_feedback_liouvillian", "reduced_measurement_liouvillian",
        "resonant_full_liouvillian", "offresonant_full_liouvillian",
        "heating_liouvillian", "markovian_feedback_terms",
        "adiabatic_expansion", "adiabatic_expansion_residual",
    ),
    "sme": (
        "steady_state", "integrate_lindblad", "run_trajectory",
        "homodyne_step", "feedback_step", "ensemble_mean",
    ),
    "gaussian": (
        "bath_params", "stability", "stationary_moments", "moment_fixed_point",
        "optimal_gain", "wigner_covariance", "contour_polyline",
    ),
    "scenario": ("default_config", "parse_config", "load_config", "format_config"),
    "cli": ("main",),
}
# ScenarioConfig methods run once or more per sweep row
SCENARIO_METHODS = ("replace", "system_params", "basis_spec", "integrator_config")


def _package_modules():
    return [m for name, m in sys.modules.items()
            if m is not None and (name == "trapcool" or name.startswith("trapcool."))]


def patch_everywhere(layer, name, make_wrapper):
    """Replace trapcool.<layer>.<name> in every trapcool module that holds it.

    Returns a function that undoes the patch, or None when the target is
    absent.
    """
    home = sys.modules.get(f"trapcool.{layer}")
    original = getattr(home, name, None) if home is not None else None
    if original is None or not callable(original):
        return None
    wrapper = make_wrapper(original)
    holders = [m for m in _package_modules() if getattr(m, name, None) is original]
    for m in holders:
        setattr(m, name, wrapper)

    def restore():
        for m in holders:
            setattr(m, name, original)

    return restore


class Tracer:
    """Span recorder for one traced pass; spans stay in memory."""

    def __init__(self, trace_id, observers=None):
        self.trace_id = trace_id
        self.observers = observers or {}
        self.spans = []  # (trace_id, parent index, name, start, end)
        self.absent = []
        self._stack = []
        self._undo = []

    def _wrap(self, span_name, fn):
        spans = self.spans
        stack = self._stack
        observe = self.observers.get(span_name)
        trace_id = self.trace_id

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[index] = (trace_id, parent, span_name, start, end)
            if observe is not None:
                observe(result, *args, **kwargs)
            return result

        return traced

    def install(self):
        for layer, names in TARGETS.items():
            for name in names:
                undo = patch_everywhere(
                    layer, name, functools.partial(self._wrap, f"{layer}.{name}")
                )
                if undo is None:
                    self.absent.append(f"{layer}.{name}")
                else:
                    self._undo.append(undo)
        config = getattr(sys.modules.get("trapcool.scenario"), "ScenarioConfig", None)
        for name in SCENARIO_METHODS:
            original = getattr(config, name, None) if config is not None else None
            if original is None:
                self.absent.append(f"scenario.ScenarioConfig.{name}")
                continue
            setattr(config, name, self._wrap(f"scenario.ScenarioConfig.{name}", original))
            self._undo.append(functools.partial(setattr, config, name, original))

    def remove(self):
        while self._undo:
            self._undo.pop()()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.remove()
        return False


class SpanStats:
    """Per-name calls, total time, self time and durations of a span list."""

    def __init__(self, spans):
        child = [0.0] * len(spans)
        for _, parent, _, start, end in spans:
            if parent >= 0:
                child[parent] += end - start
        self.by_name = {}
        for (_, _, name, start, end), covered in zip(spans, child):
            entry = self.by_name.setdefault(name, {"calls": 0, "total": 0.0, "self": 0.0, "durations": []})
            entry["calls"] += 1
            entry["total"] += end - start
            entry["self"] += (end - start) - covered
            entry["durations"].append(end - start)

    def get(self, name, field):
        entry = self.by_name.get(name)
        return entry[field] if entry is not None else 0

    def layer(self, prefix, field):
        return sum(e[field] for n, e in self.by_name.items() if n.startswith(prefix + "."))

    def p50(self, name):
        entry = self.by_name.get(name)
        return statistics.median(entry["durations"]) if entry else 0.0
