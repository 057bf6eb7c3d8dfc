"""Per-layer timing of gpas from outside, by wrapping its public functions.

Each wrapped name is patched in the module that *calls* it, because
``from .x import f`` binds ``f`` at import time: ``gpas.tpa.tpa_run`` is the
binding ``TpaPoissonSource`` uses, ``gpas.core.reg_lower_gamma`` the one
``failure_probability`` uses, and so on.  Patches are installed only around
a solution and the originals are restored afterwards.

Hot leaf calls (about 1.5M ``sample_hamiltonian`` calls per 20 ``ising-4x4``
solutions) are not kept as spans: each layer keeps running totals of calls,
inclusive time and time spent in wrapped children, and a solution's span
records the difference of those totals across it.  Uniforms are counted but
not timed.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from typing import Callable

from gpas import core, ising, numerics, tpa, validation

# (module, attribute, layer name): every binding through which a layer is
# reached on the benchmark's paths.
BINDINGS = (
    (ising, "sample_hamiltonian", "ising.sample_hamiltonian"),
    (tpa, "tpa_run", "tpa.tpa_run"),
    (tpa, "exact_gpas", "core.exact_gpas"),
    (tpa, "confidence_interval", "core.confidence_interval"),
    (core, "confidence_interval", "core.confidence_interval"),
    (core, "calibrate", "core.calibrate"),
    (core, "failure_probability", "core.failure_probability"),
    (core, "gpas", "core.gpas"),
    (core, "gamma_quantile", "numerics.gamma_quantile"),
    (core, "reg_lower_gamma", "numerics.reg_lower_gamma"),
    (numerics, "reg_lower_gamma", "numerics.reg_lower_gamma"),
    (core, "sample_poisson", "numerics.sample_poisson"),
    (core, "sample_beta", "numerics.sample_beta"),
    (validation, "replicate_two_phase", "validation.replicate_two_phase"),
)

LAYERS = tuple(dict.fromkeys(name for _, _, name in BINDINGS))


class Tracer:
    """Running per-layer totals plus per-phase records of the two-phase scheme.

    ``totals[layer]`` is ``[calls, inclusive_s, children_s]``; self time is
    inclusive minus children.  ``phases`` holds one
    ``(calibrated_k, k_used, calls_charged)`` tuple per ``exact_gpas`` call.
    """

    def __init__(self) -> None:
        self.totals: dict[str, list] = {name: [0, 0.0, 0.0] for name in LAYERS}
        self.uniforms = 0
        self.cache_hits = 0
        self.descent_count_sum = 0  # sum of tpa_run results
        self.phases: list[tuple[int, int, int]] = []
        self._stack: list[list[float]] = []
        self._last_calibration = None

    def snapshot(self) -> dict:
        """Copy of every counter, for per-solution differences."""
        return {
            "totals": {name: list(v) for name, v in self.totals.items()},
            "uniforms": self.uniforms,
            "cache_hits": self.cache_hits,
            "descent_count_sum": self.descent_count_sum,
            "phases": len(self.phases),
        }

    def _timed(self, layer: str, fn: Callable, observe: Callable | None) -> Callable:
        totals = self.totals[layer]
        stack = self._stack

        def wrapper(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                stack.pop()
                totals[0] += 1
                totals[1] += elapsed
                totals[2] += frame[0]
                if stack:
                    stack[-1][0] += elapsed
            if observe is not None:
                observe(result, args)
            return result

        return wrapper

    def _observer(self, layer: str, fn: Callable) -> Callable | None:
        if layer == "tpa.tpa_run":
            def observe(count, args):
                self.descent_count_sum += count
        elif layer == "core.calibrate":
            def observe(cal, args):
                self._last_calibration = cal
        elif layer == "core.exact_gpas":
            def observe(result, args):
                source = args[0]
                self.phases.append((self._last_calibration.k, result.k, source.call_count))
        elif layer == "numerics.gamma_quantile" and hasattr(fn, "cache_info"):
            info = fn.cache_info
            hits = [info().hits]

            def observe(value, args):
                now = info().hits
                self.cache_hits += now - hits[0]
                hits[0] = now
        else:
            return None
        return observe

    def span_since(self, before: dict) -> dict:
        """A solution's span: how far every counter moved since ``before``."""
        now = self.snapshot()
        return {
            "layers": {
                name: [a - b for a, b in zip(now["totals"][name], before["totals"][name])]
                for name in LAYERS
                if now["totals"][name][0] != before["totals"][name][0]
            },
            "uniforms": now["uniforms"] - before["uniforms"],
            "cache_hits": now["cache_hits"] - before["cache_hits"],
            "descent_count_sum": now["descent_count_sum"] - before["descent_count_sum"],
        }

    @contextmanager
    def installed(self):
        """Patch every binding (and count uniforms) for the duration."""
        originals = []
        try:
            for module, attr, layer in BINDINGS:
                fn = getattr(module, attr)
                originals.append((module, attr, fn))
                setattr(module, attr, self._timed(layer, fn, self._observer(layer, fn)))
            next_uniform = numerics.RngStream.next_uniform
            originals.append((numerics.RngStream, "next_uniform", next_uniform))

            def counted(stream):
                self.uniforms += 1
                return next_uniform(stream)

            numerics.RngStream.next_uniform = counted
            yield self
        finally:
            for owner, attr, fn in reversed(originals):
                setattr(owner, attr, fn)
