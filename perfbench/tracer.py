"""Per-layer spans and counts for one traced benchmark iteration.

The library carries no instrumentation, so the tracer wraps the public
function of each layer at every name its callers resolve at call time
(``casimir_lab.lifshitz.integrate_decaying_2d``, not the quadrature
module's own attribute) and restores the originals afterwards.

A span records its inclusive duration and its self time, the part not
covered by child spans on the same thread.  Times are busy times summed
over threads: the grid pool runs force evaluations on worker threads whose
spans have no parent, so a grid call's busy time is the growth of the
force-span total while it runs (grid calls never overlap each other).
Integrands handed to the quadrature routines are wrapped too, so a routine's
self time is its own panel bookkeeping and the integrand time is the kernel's.
"""

import importlib
import inspect
import math
import threading
from collections import Counter
from time import perf_counter

import numpy as np

#: (layer kind, module, attribute) for every name a caller looks up.
TARGETS = (
    ("force", "casimir_lab.lifshitz", "force_sphere_plane"),
    ("force", "casimir_lab.analysis", "force_sphere_plane"),
    ("free_energy", "casimir_lab.lifshitz", "free_energy_per_area"),
    ("grid", "casimir_lab.lifshitz", "force_sphere_plane_grid"),
    ("grid", "casimir_lab.cli", "force_sphere_plane_grid"),
    ("quadrature.1d", "casimir_lab.lifshitz", "integrate_decaying"),
    ("quadrature.2d", "casimir_lab.lifshitz", "integrate_decaying_2d"),
    ("dielectric.eps", "casimir_lab.lifshitz", "eps_imag_axis"),
    ("corrections.stencil", "casimir_lab.corrections", "fluctuation_corrected_force"),
    ("analysis.fit", "casimir_lab.analysis", "fit_patch_and_offset"),
    ("analysis.bin", "casimir_lab.cli", "bin_points"),
    ("campaign.generate", "casimir_lab.cli", "generate_campaign"),
    ("campaign.drift", "casimir_lab.cli", "subtract_drift"),
    ("electrostatics", "casimir_lab.campaign", "bias_force"),
    ("electrostatics", "casimir_lab.campaign", "patch_force"),
)


class _ThreadState(threading.local):
    """Span stack and tallies of one thread; merged when metrics are read."""

    def __init__(self, states, lock):
        self.stack = []
        self.calls = Counter()
        self.time = Counter()
        self.self_time = Counter()
        self.counts = Counter()
        with lock:
            states.append(self.__dict__)


class Tracer:
    """Collects spans and counts; ``install`` and ``restore`` bracket a run."""

    def __init__(self):
        self._lock = threading.Lock()
        self._states = []
        self._local = _ThreadState(self._states, self._lock)
        self._forces_seen = set()
        self._saved = []

    def span(self, name, fn, *args, **kwargs):
        """Call ``fn`` inside a span called ``name``."""
        state = self._local
        stack = state.stack
        frame = [name, 0.0]
        stack.append(frame)
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            elapsed = perf_counter() - start
            stack.pop()
            if stack:
                stack[-1][1] += elapsed
            state.calls[name] += 1
            state.time[name] += elapsed
            state.self_time[name] += elapsed - frame[1]

    def _merged(self, table):
        merged = Counter()
        with self._lock:
            for state in self._states:
                merged.update(state[table])
        return merged

    # -- wrappers, one factory per layer kind ------------------------------

    def _wrap(self, kind, fn):
        factory = {
            "force": self._force,
            "free_energy": self._free_energy,
            "grid": self._grid,
            "quadrature.1d": self._quadrature,
            "quadrature.2d": self._quadrature,
            "dielectric.eps": self._eps,
            "campaign.generate": self._generate,
        }.get(kind, self._plain)
        return factory(kind, fn)

    def _plain(self, name, fn):
        def wrapper(*args, **kwargs):
            return self.span(name, fn, *args, **kwargs)

        return wrapper

    def _force(self, name, fn):
        signature = inspect.signature(fn)

        def wrapper(*args, **kwargs):
            bound = signature.bind(*args, **kwargs).arguments
            key = (bound["d"], bound["T"], bound["model"])
            with self._lock:
                repeated = key in self._forces_seen
                self._forces_seen.add(key)
            # first touch of the thread-local state takes the lock, so only
            # after it is released
            state = self._local
            state.counts["force.repeats"] += repeated
            if state.stack and state.stack[-1][0] == "corrections.stencil":
                state.counts["stencil.theory_evals"] += 1
            return self.span("lifshitz.force", fn, *args, **kwargs)

        return wrapper

    def _free_energy(self, name, fn):
        signature = inspect.signature(fn)

        def wrapper(*args, **kwargs):
            T = signature.bind(*args, **kwargs).arguments["T"]
            layer = "lifshitz.t0" if T == 0.0 else "lifshitz.thermal"
            return self.span(layer, fn, *args, **kwargs)

        return wrapper

    def _grid(self, name, fn):
        def wrapper(*args, **kwargs):
            before = self._merged("time")["lifshitz.force"]
            try:
                return self.span("lifshitz.grid", fn, *args, **kwargs)
            finally:
                busy = self._merged("time")["lifshitz.force"] - before
                self._local.counts["grid.busy_s"] += busy

        return wrapper

    def _quadrature(self, name, fn):
        def wrapper(f, *args, **kwargs):
            rows = 0

            def integrand(*xs):
                nonlocal rows
                values = self.span(name + ".integrand", f, *xs)
                shape = values.shape
                grid_ndim = max(x.ndim for x in xs)
                self._local.counts[name + ".nodes"] += math.prod(shape[-grid_ndim:])
                # axes in front of the node grid index a family of integrals
                # (one per Matsubara frequency on the thermal ladder)
                if len(shape) > grid_ndim:
                    rows = max(rows, shape[0])
                return values

            try:
                return self.span(name, fn, integrand, *args, **kwargs)
            finally:
                self._local.counts["matsubara.rows"] += rows

        return wrapper

    def _eps(self, name, fn):
        def wrapper(model, xi):
            self._local.counts["dielectric.eps.values"] += np.size(xi)
            return self.span(name, fn, model, xi)

        return wrapper

    def _generate(self, name, fn):
        def wrapper(*args, **kwargs):
            result = self.span(name, fn, *args, **kwargs)
            self._local.counts["campaign.points"] += len(result.points)
            return result

        return wrapper

    # -- patching ----------------------------------------------------------

    def install(self):
        """Replace every target name with its wrapper."""
        wrappers = {}
        for kind, module_name, attr in TARGETS:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            key = (kind, id(original))
            if key not in wrappers:
                wrappers[key] = self._wrap(kind, original)
            self._saved.append((module, attr, original))
            setattr(module, attr, wrappers[key])

    def restore(self):
        """Put every original back; True when each name is the original again."""
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        restored = all(getattr(m, a) is o for m, a, o in self._saved)
        self._saved = []
        return restored

    # -- results -----------------------------------------------------------

    def metrics(self):
        """Per-layer metrics of this run, keyed by their benchmark names.

        ``.s`` is inclusive busy time, ``.self_s`` excludes child spans.
        What each should move: the T = 0 integral (``lifshitz.t0``,
        ``quadrature.2d``) wall_s on verdict and curves; the thermal ladder
        (``lifshitz.thermal``, ``lifshitz.matsubara.terms``,
        ``quadrature.1d``, ``lifshitz.force.repeat_frac``) wall_s on band;
        the grid pool (``lifshitz.grid``) wall_s and cpu_s on curves and
        band, nothing on verdict; the stencil, fit, campaign and
        electrostatics layers verdict only; ``cli.self_s`` all three.
        """
        c, t, s, n = (self._merged(table) for table in ("calls", "time", "self_time", "counts"))

        def ratio(num, den):
            return num / den if den else 0.0

        out = {
            "lifshitz.t0.calls": c["lifshitz.t0"],
            "lifshitz.t0.s": t["lifshitz.t0"],
            "lifshitz.thermal.calls": c["lifshitz.thermal"],
            "lifshitz.thermal.s": t["lifshitz.thermal"],
            "lifshitz.matsubara.terms": ratio(n["matsubara.rows"], c["lifshitz.thermal"]),
            "lifshitz.force.calls": c["lifshitz.force"],
            "lifshitz.force.repeat_frac": ratio(n["force.repeats"], c["lifshitz.force"]),
            "lifshitz.grid.calls": c["lifshitz.grid"],
            "lifshitz.grid.wall_s": t["lifshitz.grid"],
            "lifshitz.grid.busy_s": n["grid.busy_s"],
            "lifshitz.grid.speedup": ratio(n["grid.busy_s"], t["lifshitz.grid"]),
        }
        for q in ("quadrature.1d", "quadrature.2d"):
            out[q + ".calls"] = c[q]
            out[q + ".s"] = t[q]
            out[q + ".self_s"] = s[q]
            out[q + ".integrand_calls"] = c[q + ".integrand"]
            out[q + ".nodes"] = n[q + ".nodes"]
        out.update(
            {
                "dielectric.eps.calls": c["dielectric.eps"],
                "dielectric.eps.values": n["dielectric.eps.values"],
                "dielectric.eps.s": t["dielectric.eps"],
                "corrections.stencil.calls": c["corrections.stencil"],
                "corrections.theory_evals_per_gap": ratio(
                    n["stencil.theory_evals"], c["corrections.stencil"]
                ),
                "analysis.fit.calls": c["analysis.fit"],
                "analysis.fit.self_s": s["analysis.fit"],
                "analysis.bin.s": t["analysis.bin"],
                "campaign.generate.self_s": s["campaign.generate"],
                "campaign.drift.s": t["campaign.drift"],
                "campaign.points": n["campaign.points"],
                "electrostatics.calls": c["electrostatics"],
                "electrostatics.s": t["electrostatics"],
                "cli.self_s": s["cli"],
            }
        )
        return out

