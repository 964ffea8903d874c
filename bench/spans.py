"""Span recorder for the traced run.

The program is not changed: ``install`` replaces each layer's public
functions, at the module attribute their callers look up, with a wrapper
that opens a span around the call. A span's busy time is its duration; its
self time is that minus the time of the spans it caused. Spans are folded
into per-name totals as they close and stay in memory until the run ends;
the derived checks (eigen residuals, series digits) run after the batch,
outside every span.
"""

from __future__ import annotations

import inspect
import math
import time
from collections import defaultdict

import numpy as np


class Tracer:
    """Per-name span totals plus the counts read off wrapped calls."""

    def __init__(self):
        self._open = []  # child time accumulated by each open span
        self.calls = defaultdict(int)
        self.busy = defaultdict(float)
        self.self_time = defaultdict(float)
        self.steps = [0, 0]  # accepted, rejected
        self.eig_inputs = []  # (matrix, eigenvalues, eigenvectors)
        self.eig_busy_by_n = defaultdict(float)
        self.series = []  # (model, t, result)

    def call(self, name, fn, *args, **kwargs):
        self._open.append(0.0)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            duration = time.perf_counter() - start
            child = self._open.pop()
            self.calls[name] += 1
            self.busy[name] += duration
            self.self_time[name] += duration - child
            if self._open:
                self._open[-1] += duration

    def wrap(self, name, fn):
        def traced(*args, **kwargs):
            return self.call(name, fn, *args, **kwargs)

        return traced

    # -- wrappers that also read counts off the call --------------------------

    def wrap_ode(self, fn):
        def traced(rhs, *args, **kwargs):
            traj = self.call("numkit.ode", fn, self.wrap("numkit.ode.rhs", rhs),
                             *args, **kwargs)
            self.steps[0] += traj.accepted_steps
            self.steps[1] += traj.rejected_steps
            return traj

        return traced

    def wrap_eig(self, fn):
        def traced(m, *args, **kwargs):
            before = self.busy["numkit.eig"]
            w, vecs = self.call("numkit.eig", fn, m, *args, **kwargs)
            matrix = np.asarray(getattr(m, "entries", m))
            self.eig_busy_by_n[matrix.shape[0]] += self.busy["numkit.eig"] - before
            self.eig_inputs.append((matrix, w, vecs))
            return w, vecs

        return traced

    def wrap_series(self, fn):
        def traced(m, t, *args, **kwargs):
            result = self.call("twostate.bessel_series_a", fn, m, t, *args, **kwargs)
            self.series.append((m, t, result))
            return result

        return traced

    # -- reduction ----------------------------------------------------------

    def counts(self) -> dict:
        """The counts that must repeat exactly from one traced batch to the next."""
        return {
            "numkit.ode.calls": self.calls["numkit.ode"],
            "numkit.ode.accepted_steps": self.steps[0],
            "numkit.ode.rejected_steps": self.steps[1],
            "numkit.ode.rhs_calls": self.calls["numkit.ode.rhs"],
            "numkit.eig.calls": self.calls["numkit.eig"],
            "numkit.eig.max_n": max((m.shape[0] for m, _, _ in self.eig_inputs), default=0),
            "numkit.jets.mul_calls": self.calls["numkit.jets.mul"],
            "numkit.jets.recip_calls": self.calls["numkit.jets.recip"],
            "twostate.gtilde_table.calls": self.calls["twostate.gtilde_table"],
            "twostate.bessel_series_a.terms": sum(r.term_magnitudes.size for _, _, r in self.series),
            "nstate.rs_recursion.calls": self.calls["nstate.rs_recursion"],
            "cli.commands": self.calls["cli"],
        }

    def times(self) -> dict:
        steps = sum(self.steps)
        max_n = max((m.shape[0] for m, _, _ in self.eig_inputs), default=0)
        return {
            "numkit.ode.busy_s": self.busy["numkit.ode"],
            "numkit.ode.self_s": self.self_time["numkit.ode"],
            "numkit.ode.rhs_s": self.busy["numkit.ode.rhs"],
            "numkit.ode.us_per_step": 1e6 * self.busy["numkit.ode"] / steps if steps else 0.0,
            "numkit.eig.busy_s": self.busy["numkit.eig"],
            "numkit.eig.max_n_busy_s": self.eig_busy_by_n[max_n] if max_n else 0.0,
            "numkit.jets.busy_s": self.busy["numkit.jets.mul"] + self.busy["numkit.jets.recip"],
            "twostate.gtilde_table.self_s": self.self_time["twostate.gtilde_table"],
            "twostate.evolve_two_state.self_s": self.self_time["twostate.evolve_two_state"],
            "twostate.phase_f.busy_s": self.busy["twostate.phase_f"],
            "twostate.bessel_series_a.busy_s": self.busy["twostate.bessel_series_a"],
            "nstate.rs_recursion.self_s": self.self_time["nstate.rs_recursion"],
            "nstate.oracle_shift.self_s": self.self_time["nstate.oracle_shift"],
            "nstate.evolve_nstate.self_s": self.self_time["nstate.evolve_nstate"],
            "cli.busy_s": self.busy["cli"],
            "cli.self_s": self.self_time["cli"],
            "modelio.load_model.busy_s": self.busy["modelio.load_model"],
            "report.emit.busy_s": self.busy["report.emit"],
        }

    def quality(self, series_oracle) -> dict:
        """Figures derived from the recorded calls, computed after the batch.

        ``series_oracle(model, t)`` gives the exact amplitude or None.
        """
        steps = sum(self.steps)
        residual = 0.0
        for matrix, w, vecs in self.eig_inputs:
            scale = np.linalg.norm(matrix)
            if scale:
                residual = max(
                    residual,
                    float(np.linalg.norm(matrix @ vecs - vecs * w) / scale),
                )
        digits = []
        for model, t, result in self.series:
            ref = series_oracle(model, t)
            if ref is not None:
                err = abs(result.value - ref) / abs(ref)
                digits.append(16.0 if err <= 1e-16 else -math.log10(err))
        return {
            "numkit.ode.accept_ratio": self.steps[0] / steps if steps else 0.0,
            "numkit.eig.recon_residual": residual,
            "twostate.bessel_series_a.max_term": max(
                (float(r.term_magnitudes.max()) for _, _, r in self.series
                 if r.term_magnitudes.size), default=0.0),
            "twostate.bessel_series_a.digits": min(digits, default=0.0),
        }


def install(tracer: Tracer, twostate, nstate, cli):
    """Wrap the layers' functions at the names their callers look up.

    Returns a function that puts the originals back.
    """
    saved = []

    def patch(module, attr, wrapper):
        saved.append((module, attr, getattr(module, attr)))
        setattr(module, attr, wrapper)

    for module, prefix in ((twostate, "twostate"), (nstate, "nstate")):
        for attr in module.__all__:
            fn = getattr(module, attr)
            if inspect.isfunction(fn) and attr != "bessel_series_a":
                patch(module, attr, tracer.wrap(f"{prefix}.{attr}", fn))
        patch(module, "ode_evolve", tracer.wrap_ode(module.ode_evolve))
        patch(module, "jet_recip", tracer.wrap("numkit.jets.recip", module.jet_recip))
    patch(twostate, "bessel_series_a", tracer.wrap_series(twostate.bessel_series_a))
    patch(twostate, "jet_mul", tracer.wrap("numkit.jets.mul", twostate.jet_mul))
    patch(nstate, "hermitian_eig", tracer.wrap_eig(nstate.hermitian_eig))
    patch(cli, "load_model", tracer.wrap("modelio.load_model", cli.load_model))
    patch(cli, "emit", tracer.wrap("report.emit", cli.emit))

    def restore():
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)

    return restore
