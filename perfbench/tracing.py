"""Per-layer spans recorded from outside the program.

``Tracer.install`` replaces public functions of the ``quarterplane`` modules
with timing wrappers: at the defining module's attribute and at every name
another module imported them under (``schemes.godunov_trace_scalar``,
``cli.make_model``, the values of ``cli.HANDLERS``).  ``make_model`` is wrapped
so that each model it returns carries counting wrappers around ``flux``,
``dflux``, ``jacobian`` and ``viscosity``.

Each wrapped call is a span with a name, start, end and parent.  A group's
self time is the sum over its spans of the duration minus the time covered
by child spans.  Model-callable spans (millions per pass) are folded into
their group's counters as they close; every other span is also kept in
``spans`` as (name, start, end, parent index) for inspection.
"""

from __future__ import annotations

import dataclasses
import functools
import os
from collections import defaultdict
from time import perf_counter

import numpy as np

import quarterplane
from quarterplane import admissible, cli, diagnostics, layers, riemann, schemes, systems

MODULES = (quarterplane, systems, riemann, layers, schemes, admissible, diagnostics, cli)

# group -> public functions whose spans it sums
GROUPS = {
    "schemes.run_viscous": [schemes.run_viscous],
    "schemes.conservative": [schemes.run_lf, schemes.run_split, schemes.run_godunov],
    "schemes.discrete_entropy_residual": [schemes.discrete_entropy_residual],
    "riemann.godunov_trace_scalar": [riemann.godunov_trace_scalar],
    "riemann.scalar_riemann_trace": [riemann.scalar_riemann_trace],
    "riemann.psystem_riemann_trace": [riemann.psystem_riemann_trace],
    "layers.lf_membership_scalar_batch": [layers.lf_membership_scalar_batch],
    "layers.viscous_member_scalar": [layers.viscous_member_scalar],
    "layers.profile": [layers.viscous_layer_profile, layers.discrete_layer_membership],
    "layers.manifold_report": [layers.manifold_report],
    "layers.elasto_layer_curve": [layers.elasto_layer_curve],
    "admissible.layer_member_oracle": [admissible.layer_member_oracle],
    "admissible.inclusion_audit": [admissible.inclusion_audit],
    "admissible.pointwise": [admissible.bln_check, admissible.kruzkov_worst],
    "admissible.closed_form": [admissible.riemann_set_scalar, admissible.exclusion_set,
                               admissible.layer_set_scalar],
    "diagnostics.extract_boundary_trace": [diagnostics.extract_boundary_trace],
    "diagnostics.boundary_entropy_residual": [diagnostics.boundary_entropy_residual],
    "systems.make_model": [systems.make_model],
    "cli.config": [cli.load_config],
    "cli.write": [cli.write_json, cli.write_csv],
    "cli.handler": list(cli.HANDLERS.values()) + [cli.run_verify],
}
MODEL_CALLABLES = ("flux", "dflux", "jacobian", "viscosity")


class Tracer:
    def __init__(self):
        self.stack = []  # [child time, span index] per open span
        self.spans = []
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.count = defaultdict(int)  # states, steps, candidates, bytes, ...
        self.inclusive_s = defaultdict(float)
        self.history_mib = 0.0
        self._undo = []

    def reset(self):
        self.spans.clear()
        self.calls.clear()
        self.self_s.clear()
        self.count.clear()
        self.inclusive_s.clear()
        self.history_mib = 0.0

    # --- spans ----------------------------------------------------------------

    def _wrap(self, group, fn, keep=True, after=None):
        stack, spans = self.stack, self.spans

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = stack[-1][1] if stack else -1  # kept spans nest under kept spans
            if keep:
                spans.append([group, 0.0, 0.0, idx])
                idx = len(spans) - 1
            frame = [0.0, idx]
            stack.append(frame)
            t0 = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                dur = t1 - t0
                self.calls[group] += 1
                self.self_s[group] += dur - frame[0]
                if stack:
                    stack[-1][0] += dur
                if keep:
                    spans[idx][1], spans[idx][2] = t0, t1
            if after is not None:
                after(out, args, kwargs, dur)
            return out

        return wrapper

    # --- counters taken at the span boundaries -------------------------------

    def _after_scheme(self, group):
        def after(sol, args, kwargs, dur):
            steps = int(round(float(sol.times[-1]) / sol.tau))
            self.count[group + ".steps"] += steps
            self.count[group + ".cell_steps"] += steps * sol.xs.size
            self.inclusive_s[group] += dur
            if sol.history is not None:
                self.history_mib = max(self.history_mib, sol.history.nbytes / 2 ** 20)
        return after

    def _after_godunov(self, out, args, kwargs, dur):
        self.count["riemann.godunov_trace_scalar.states"] += int(np.broadcast(
            np.asarray(args[1]), np.asarray(args[2])).size)

    def _lf_batch(self, fn):
        def counted(*args, **kwargs):
            before = self.count["systems.flux.states"]
            out = fn(*args, **kwargs)
            self.count["layers.lf_membership_scalar_batch.candidates"] += int(np.size(out))
            self.count["layers.lf_membership_scalar_batch.flux_states"] += \
                self.count["systems.flux.states"] - before
            return out
        return functools.wraps(fn)(counted)

    def _after_write(self, out, args, kwargs, dur):
        self.count["cli.write.bytes"] += os.path.getsize(args[0])

    def _model_callable(self, group, fn, dim):
        def after(out, args, kwargs, dur):
            self.count[group + ".states"] += max(int(np.size(args[0])) // dim, 1)
        return self._wrap(group, fn, keep=False, after=after)

    def _make_model(self, fn):
        def make(*args, **kwargs):
            model = fn(*args, **kwargs)
            dim = model.dimension
            return dataclasses.replace(model, **{
                name: self._model_callable(f"systems.{name}", getattr(model, name), dim)
                for name in MODEL_CALLABLES if getattr(model, name) is not None})
        return functools.wraps(fn)(make)

    # --- installation ----------------------------------------------------------

    def install(self):
        """Replace every public function named in GROUPS, wherever bound."""
        replace = {}
        for group, fns in GROUPS.items():
            for fn in fns:
                inner = fn
                if fn is systems.make_model:
                    inner = self._make_model(fn)
                elif fn is layers.lf_membership_scalar_batch:
                    inner = self._lf_batch(fn)
                after = None
                if group in ("schemes.run_viscous", "schemes.conservative"):
                    after = self._after_scheme(group)
                elif fn is riemann.godunov_trace_scalar:
                    after = self._after_godunov
                elif group == "cli.write":
                    after = self._after_write
                replace[id(fn)] = self._wrap(group, inner, after=after)
        for mod in MODULES:
            for name, obj in list(vars(mod).items()):
                if callable(obj) and id(obj) in replace:
                    self._undo.append((mod, name, obj))
                    setattr(mod, name, replace[id(obj)])
        for task, fn in list(cli.HANDLERS.items()):
            self._undo.append((cli.HANDLERS, task, fn))
            cli.HANDLERS[task] = replace[id(fn)]

    def uninstall(self):
        for target, name, obj in reversed(self._undo):
            if isinstance(target, dict):
                target[name] = obj
            else:
                setattr(target, name, obj)
        self._undo.clear()

    # --- report ------------------------------------------------------------------

    def metrics(self):
        """Per-layer values of one pass, by the names of BENCHMARK.json."""
        m = {}
        for group in GROUPS:
            m[group + ".calls"] = self.calls[group]
            m[group + ".self_s"] = self.self_s[group]
        for group in ("systems.flux", "systems.dflux", "systems.jacobian", "systems.viscosity"):
            m[group + ".calls"] = self.calls[group]
        m["systems.flux.self_s"] = self.self_s["systems.flux"]
        m["systems.flux.states"] = self.count["systems.flux.states"]
        m["systems.dflux.states"] = self.count["systems.dflux.states"]
        for group in ("schemes.run_viscous", "schemes.conservative"):
            cells = self.count[group + ".cell_steps"]
            m[group + ".steps"] = self.count[group + ".steps"]
            m[group + ".cell_steps"] = cells
            m[group + ".ns_per_cell_step"] = \
                1e9 * self.inclusive_s[group] / cells if cells else 0.0
        m["schemes.history_mib"] = self.history_mib
        m["riemann.godunov_trace_scalar.states"] = self.count["riemann.godunov_trace_scalar.states"]
        cand = self.count["layers.lf_membership_scalar_batch.candidates"]
        m["layers.lf_membership_scalar_batch.candidates"] = cand
        m["layers.lf_membership_scalar_batch.flux_states_per_candidate"] = \
            self.count["layers.lf_membership_scalar_batch.flux_states"] / cand if cand else 0.0
        m["cli.write.bytes"] = self.count["cli.write.bytes"]
        return m
