"""In-memory span tracer that instruments rchlab from outside the package.

Nothing inside ``src/rchlab`` changes.  :meth:`Tracer.install` replaces, in
every rchlab module's namespace, each binding of a public rchlab function (and
of a private one that another module imports by name) with a wrapper that
records a span: name, start, end, parent.  A module that imported a function by
name is wrapped at its own binding, so ``rchlab.eulerian.conv_spec`` is traced
as well as ``rchlab.spectral.conv_spec``.  Span names carry the defining
module, so both record ``spectral.conv_spec``.

FFTs run about 10^5 times per iteration and the Lagrangian scan about 10^3, so
they go to per-module counters (calls, points, accumulated time) instead of one
span each.  Counter time is taken out of the enclosing span's self time and
credited to the layer whose binding was called (``eulerian.fft`` for an FFT
made through ``rchlab.eulerian.rfft``).  Speed samples (see speed.py) that
interrupt a span or a counted call are left out of its time.  Spans are kept
in memory and written out by the caller when the run ends.
"""

from __future__ import annotations

import importlib
import inspect
import math
import os
import time
from collections import defaultdict

import numpy as np
import numpy.fft
import scipy.fft

LAYERS = ("coefficients", "spectral", "littlewood_paley", "eulerian",
          "lagrangian", "initial_data", "experiments", "cli")

_FFT_NAMES = ("fft", "ifft", "rfft", "irfft", "rfftn", "irfftn")
_FFT_FUNCS = {getattr(mod, name): name.startswith("i")
              for mod in (scipy.fft, numpy.fft) for name in _FFT_NAMES}

# spans whose presence on the stack marks work done inside a time stepper
_RK4_SPANS = ("eulerian.solve", "eulerian.picard_iterate")
_IO_WRITE = ("spectral.field_to_csv", "spectral.field_to_binary")
_IO_READ = ("spectral.field_from_csv", "spectral.field_from_binary")


def rk4_step_count(dt: float, t_end: float) -> int:
    """Steps a fixed-step run takes: full steps plus a final partial one."""
    n_full = math.floor(t_end / dt + 1e-9)
    partial = t_end - dt * n_full > 1e-9 * max(1.0, t_end)
    return int(n_full) + int(partial)


def _arg(args, kwargs, index: int, name: str):
    """Argument ``index`` of a call, whether passed by position or name."""
    return args[index] if len(args) > index else kwargs[name]


def _fft_points(args, kwargs, inverse: bool) -> int:
    shape = np.shape(_arg(args, kwargs, 0, "x"))
    n = kwargs.get("n", args[1] if len(args) > 1 else None)
    if n is None:
        n = 2 * (shape[-1] - 1) if inverse else shape[-1]
    return int(n) * math.prod(shape[:-1])


def _path_bytes(path) -> int:
    try:
        return os.path.getsize(path)
    except OSError:
        return 0


class Tracer:
    """Spans and counters for one traced iteration at a time."""

    def __init__(self):
        self._patches: list[tuple[object, str, object]] = []
        # span record: [name, start, end, parent index, child seconds, nested,
        #               seconds paused inside]
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._active: dict[str, int] = defaultdict(int)
        # counter record: [calls, points, seconds, calls inside a stepper]
        self.counters: dict[str, list] = defaultdict(lambda: [0, 0, 0.0, 0])
        self.stats: dict[str, float] = defaultdict(float)
        # running total of speed-sample pauses; a wrapper reads it at entry
        # and exit and leaves the difference out of its call's time
        self.paused = 0.0

    def pause(self, seconds: float) -> None:
        """Count ``seconds`` spent outside the program."""
        self.paused += seconds

    def reset(self) -> None:
        """Forget the previous iteration; wrappers hold these containers."""
        for container in (self.spans, self._stack, self._active,
                          self.counters, self.stats):
            container.clear()
        self.paused = 0.0

    # -- instrumentation -------------------------------------------------

    def install(self) -> None:
        """Wrap every traced binding in every rchlab layer module."""
        modules = {name: importlib.import_module(f"rchlab.{name}")
                   for name in LAYERS}
        bound_in: dict[object, set[str]] = defaultdict(set)
        for layer, mod in modules.items():
            for value in vars(mod).values():
                if inspect.isfunction(value):
                    bound_in[value].add(layer)
        wrappers: dict[object, object] = {}
        for layer, mod in modules.items():
            for attr, value in list(vars(mod).items()):
                wrapper = self._wrapper_for(layer, attr, value, bound_in,
                                            wrappers)
                if wrapper is not None:
                    self._patches.append((mod, attr, value))
                    setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for mod, attr, value in reversed(self._patches):
            setattr(mod, attr, value)
        self._patches.clear()

    def _wrapper_for(self, layer, attr, value, bound_in, wrappers):
        if not callable(value):
            return None
        try:
            inverse = _FFT_FUNCS.get(value)
        except TypeError:  # unhashable callable
            return None
        if inverse is not None:
            return self._counter(f"{layer}.fft",
                                 lambda a, k: _fft_points(a, k, inverse),
                                 value, inside=_RK4_SPANS)
        if not inspect.isfunction(value):
            return None
        module = getattr(value, "__module__", "") or ""
        if not module.startswith("rchlab."):
            return None
        home = module.split(".", 1)[1]
        if home not in LAYERS:
            return None
        if value in wrappers:
            return wrappers[value]
        if home == "lagrangian" and value.__name__ == "_one_sided_scan":
            wrapper = self._counter("lagrangian.scan",
                                    lambda a, k: len(a[0]), value,
                                    inside=("lagrangian.lagrangian_solve",))
        elif (not value.__name__.startswith("_")
              or bound_in[value] - {home}):
            wrapper = self._span(f"{home}.{value.__name__}", value)
        else:
            return None
        wrappers[value] = wrapper
        return wrapper

    def _counter(self, name, points_of, fn, inside=()):
        perf = time.perf_counter
        tracer = self

        def wrapper(*args, **kwargs):
            p0 = tracer.paused
            t0 = perf()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = perf() - t0 - (tracer.paused - p0)
                rec = tracer.counters[name]
                rec[0] += 1
                rec[1] += points_of(args, kwargs)
                rec[2] += dt
                if any(tracer._active[s] for s in inside):
                    rec[3] += 1
                if tracer._stack:
                    tracer.spans[tracer._stack[-1]][4] += dt

        wrapper.__wrapped__ = fn
        return wrapper

    def _span(self, name, fn):
        perf = time.perf_counter
        tracer = self
        observe = self._observer(name)

        def wrapper(*args, **kwargs):
            stack = tracer._stack
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, 0.0,
                   tracer._active[name] > 0, 0.0]
            stack.append(len(tracer.spans))
            tracer.spans.append(rec)
            tracer._active[name] += 1
            result = None
            p0 = tracer.paused
            rec[1] = perf()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = perf()
                rec[2] = end
                rec[6] = tracer.paused - p0
                dt = end - rec[1] - rec[6]
                stack.pop()
                tracer._active[name] -= 1
                if rec[3] >= 0:
                    tracer.spans[rec[3]][4] += dt
                if observe is not None:
                    observe(args, kwargs, result, dt)

        wrapper.__wrapped__ = fn
        return wrapper

    def _observer(self, name):
        """Per-name hook that turns a call's arguments into work counts."""
        stats = self.stats
        if name == "spectral.conv_spec":
            def observe(args, kwargs, result, dt):
                if any(self._active[s] for s in _RK4_SPANS):
                    stats["conv_in_rk4"] += 1
        elif name == "eulerian.solve":
            def observe(args, kwargs, result, dt):
                u0 = _arg(args, kwargs, 0, "u0")
                cfg = _arg(args, kwargs, 2, "cfg")
                steps = rk4_step_count(cfg.dt, cfg.t_end)
                stats["solve.rk4_steps"] += steps
                stats["solve.point_steps"] += steps * u0.grid.n_points
        elif name == "eulerian.picard_iterate":
            def observe(args, kwargs, result, dt):
                cfg = _arg(args, kwargs, 2, "cfg")
                m_iters = _arg(args, kwargs, 3, "m_iters")
                stats["picard.rk4_steps"] += (
                    m_iters * rk4_step_count(cfg.dt, cfg.t_end))
        elif name == "lagrangian.lagrangian_solve":
            def observe(args, kwargs, result, dt):
                cfg = _arg(args, kwargs, 2, "cfg")
                stats["lagrangian.rk4_steps"] += rk4_step_count(cfg.dt,
                                                                cfg.t_end)
        elif name in _IO_WRITE or name in _IO_READ:
            kind = "write" if name in _IO_WRITE else "read"

            def observe(args, kwargs, result, dt):
                stats[f"io.{kind}.s"] += dt
                stats[f"io.{kind}.bytes"] += _path_bytes(
                    _arg(args, kwargs, 1, "path") if kind == "write"
                    else _arg(args, kwargs, 0, "path"))
        elif name == "cli.main":
            def observe(args, kwargs, result, dt):
                if result != 0:
                    stats["cli.exit_nonzero"] += 1
        else:
            return None
        return observe

    # -- reduction -------------------------------------------------------

    def layer_metrics(self, wall: float) -> dict[str, float]:
        """Per-layer metrics of the iteration traced since the last reset."""
        calls: dict[str, int] = defaultdict(int)
        self_s: dict[str, float] = defaultdict(float)
        incl_s: dict[str, float] = defaultdict(float)
        for name, start, end, _parent, child, nested, paused in self.spans:
            calls[name] += 1
            self_s[name] += end - start - paused - child
            if not nested:
                incl_s[name] += end - start - paused
        layer_self = {layer: 0.0 for layer in LAYERS}
        for name, value in self_s.items():
            layer_self[name.split(".", 1)[0]] += value
        for name, rec in self.counters.items():
            layer_self[name.split(".", 1)[0]] += rec[2]
        ctr = self.counters
        st = self.stats
        solve_steps = st["solve.rk4_steps"]
        rk4_steps = solve_steps + st["picard.rk4_steps"]
        lag_steps = st["lagrangian.rk4_steps"]
        m = {
            "spectral.conv_spec.calls": calls["spectral.conv_spec"],
            "spectral.conv_spec.self_s": self_s["spectral.conv_spec"],
            "spectral.conv_per_rk4_step": (st["conv_in_rk4"] / rk4_steps
                                           if rk4_steps else 0.0),
            "spectral.fft.calls": ctr["spectral.fft"][0],
            "spectral.fft.points": ctr["spectral.fft"][1],
            "spectral.fft.s": ctr["spectral.fft"][2],
            "spectral.product.calls": calls["spectral.product"],
            "spectral.product.s": incl_s["spectral.product"],
            "spectral.io.write.s": st["io.write.s"],
            "spectral.io.write.bytes": st["io.write.bytes"],
            "spectral.io.read.s": st["io.read.s"],
            "spectral.io.read.bytes": st["io.read.bytes"],
            "spectral.self_s": layer_self["spectral"],
            "eulerian.fft.calls": ctr["eulerian.fft"][0],
            "eulerian.fft.s": ctr["eulerian.fft"][2],
            "eulerian.solve.calls": calls["eulerian.solve"],
            "eulerian.solve.self_s": self_s["eulerian.solve"],
            "eulerian.solve.rk4_steps": solve_steps,
            "eulerian.solve.ns_per_point_step": (
                1e9 * incl_s["eulerian.solve"] / st["solve.point_steps"]
                if st["solve.point_steps"] else 0.0),
            "eulerian.picard_iterate.calls": calls["eulerian.picard_iterate"],
            "eulerian.picard_iterate.self_s":
                self_s["eulerian.picard_iterate"],
            "eulerian.picard_iterate.s": incl_s["eulerian.picard_iterate"],
            "eulerian.picard_iterate.rk4_steps": st["picard.rk4_steps"],
            "eulerian.self_s": layer_self["eulerian"],
            "littlewood_paley.besov_norm.calls":
                calls["littlewood_paley.besov_norm"],
            "littlewood_paley.besov_norm.self_s":
                self_s["littlewood_paley.besov_norm"],
            "littlewood_paley.block_norms.s":
                incl_s["littlewood_paley.block_norms"],
            "littlewood_paley.high_tail_fraction.calls":
                calls["littlewood_paley.high_tail_fraction"],
            "littlewood_paley.high_tail_fraction.s":
                incl_s["littlewood_paley.high_tail_fraction"],
            "littlewood_paley.build_filter_bank.calls":
                calls["littlewood_paley.build_filter_bank"],
            "littlewood_paley.build_filter_bank.s":
                incl_s["littlewood_paley.build_filter_bank"],
            "littlewood_paley.fft.calls": ctr["littlewood_paley.fft"][0],
            "littlewood_paley.fft.s": ctr["littlewood_paley.fft"][2],
            "littlewood_paley.self_s": layer_self["littlewood_paley"],
            "lagrangian.lagrangian_solve.calls":
                calls["lagrangian.lagrangian_solve"],
            "lagrangian.lagrangian_solve.self_s":
                self_s["lagrangian.lagrangian_solve"],
            "lagrangian.lagrangian_solve.rk4_steps": lag_steps,
            "lagrangian.scan.calls": ctr["lagrangian.scan"][0],
            "lagrangian.scan.s": ctr["lagrangian.scan"][2],
            "lagrangian.scans_per_rk4_step": (ctr["lagrangian.scan"][3]
                                              / lag_steps if lag_steps
                                              else 0.0),
            "lagrangian.pullback_to_eulerian.calls":
                calls["lagrangian.pullback_to_eulerian"],
            "lagrangian.pullback_to_eulerian.s":
                incl_s["lagrangian.pullback_to_eulerian"],
            "lagrangian.stability_distance.s":
                incl_s["lagrangian.stability_distance"],
            "lagrangian.self_s": layer_self["lagrangian"],
            "initial_data.build_family.calls": calls["initial_data.build_family"],
            "initial_data.build_family.s": incl_s["initial_data.build_family"],
            "initial_data.certification_tables.s":
                incl_s["initial_data.certification_tables"],
            "initial_data.self_s": layer_self["initial_data"],
            "experiments.campaign.self_s": sum(
                v for k, v in self_s.items()
                if k.startswith("experiments.run_")),
            "experiments.write_report.s": incl_s["experiments.write_report"],
            "experiments.self_s": layer_self["experiments"],
            "cli.main.calls": calls["cli.main"],
            "cli.main.self_s": self_s["cli.main"],
            "cli.exit_nonzero": st["cli.exit_nonzero"],
            "cli.self_s": layer_self["cli"],
            "coefficients.self_s": layer_self["coefficients"],
            "unattributed.self_s": wall - sum(layer_self.values()),
            "trace.wall_s": wall,
        }
        return {k: float(v) for k, v in m.items()}

    def span_table(self) -> list[dict]:
        """Per-name calls, inclusive and self seconds, largest self first."""
        rows: dict[str, dict] = {}
        for name, start, end, _parent, child, nested, paused in self.spans:
            row = rows.setdefault(name, {"name": name, "calls": 0, "s": 0.0,
                                         "self_s": 0.0})
            row["calls"] += 1
            row["self_s"] += end - start - paused - child
            if not nested:
                row["s"] += end - start - paused
        for name, (n, points, secs, _inside) in self.counters.items():
            rows[name] = {"name": name, "calls": n, "s": secs, "self_s": secs,
                          "points": points}
        return sorted(rows.values(), key=lambda r: -r["self_s"])

    def dump_spans(self, t0: float) -> list[list]:
        """Spans as [name, start, end, parent, paused] with times relative to
        t0; ``paused`` is the speed-sample time inside the span."""
        return [[name, round(s - t0, 9), round(e - t0, 9), parent,
                 round(paused, 9)]
                for name, s, e, parent, _child, _nested, paused in self.spans]
