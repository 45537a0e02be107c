"""Spans around calls into dampedwave's layers, recorded from outside src/.

A boundary is a public function of one layer.  Modules such as solver and
harness bind these functions by name at import time, so patching the
defining module alone would miss their calls: install() replaces the
function at every site inside the loaded dampedwave modules (module
globals and module-level dicts such as harness.RUNNERS) where the same
object is bound.  The numpy.fft and scipy.fft transform entry points are
wrapped in their own modules, which dampedwave reads at call time.

Spans stay in memory as (name, start, end, parent, value) tuples, one list
per thread, and are written out once the run ends.  A span's self time is
its duration minus the durations of its direct children.  A boundary that
no longer exists is listed in `absent` and its metrics are left out, so a
refactor of src/ never crashes the traced run.
"""

from __future__ import annotations

import functools
import importlib
import math
import os
import sys
import threading
import time

import numpy as np

clock = time.monotonic

# boundary name -> (module, attribute)
BOUNDARIES = {
    "harness.run_sweep": ("dampedwave.harness", "run_sweep"),
    "harness.run_lifespan": ("dampedwave.harness", "run_lifespan"),
    "harness.run_simulate": ("dampedwave.harness", "run_simulate"),
    "harness.run_testfunc": ("dampedwave.harness", "run_testfunc"),
    "harness.emit_outputs": ("dampedwave.harness", "emit_outputs"),
    "solver.run": ("dampedwave.solver", "run"),
    "solver.measure_lifespan": ("dampedwave.solver", "measure_lifespan"),
    "accel.predict_combine": ("dampedwave.accel", "predict_combine"),
    "accel.correct_combine": ("dampedwave.accel", "correct_combine"),
    "accel.abs_pow": ("dampedwave.accel", "abs_pow"),
    "accel.khat_kprime": ("dampedwave.accel", "khat_kprime"),
    "norms.hs_norm": ("dampedwave.norms", "hs_norm"),
    "norms.hdotneg_norm": ("dampedwave.norms", "hdotneg_norm"),
    "testfunc.weight_constant": ("dampedwave.testfunc", "weight_constant"),
    "testfunc.check_bounds": ("dampedwave.testfunc", "check_bounds"),
    "profiles.power_profile": ("dampedwave.profiles", "power_profile"),
    "profiles.log_profile": ("dampedwave.profiles", "log_profile"),
    "profiles.laplacian_gaussian": ("dampedwave.profiles", "laplacian_gaussian"),
    "profiles.assemble_pair": ("dampedwave.profiles", "assemble_pair"),
}

FFT_MODULES = ("numpy.fft", "scipy.fft")
FFT_FUNCTIONS = (
    "fft", "ifft", "fft2", "ifft2", "fftn", "ifftn",
    "rfft", "irfft", "rfft2", "irfft2", "rfftn", "irfftn", "hfft", "ihfft",
)

RUNNERS = ("harness.run_lifespan", "harness.run_simulate", "harness.run_testfunc")
ACCEL = ("predict_combine", "correct_combine", "abs_pow", "khat_kprime")
COMBINES = ("predict_combine", "correct_combine")


def _array_bytes(args, kwargs, out) -> float:
    """Bytes of the array arguments read plus the arrays returned.

    Computed from array sizes; NumPy temporaries and cache misses are not
    counted.
    """
    outs = out if isinstance(out, tuple) else (out,)
    arrays = [a for a in (*args, *kwargs.values(), *outs) if isinstance(a, np.ndarray)]
    return float(sum(a.nbytes for a in arrays))


def _threads(args, kwargs, out) -> float:
    return float(kwargs.get("threads", args[2] if len(args) > 2 else 1))


# what one call of a boundary accomplished, read from its arguments and result
VALUES = {
    "solver.run": lambda a, k, out: float(out.steps_taken),
    "solver.measure_lifespan": lambda a, k, out: 0.0 if out.censored else 1.0,
    "harness.emit_outputs": lambda a, k, out: float(sum(os.path.getsize(p) for p in out)),
    "harness.run_sweep": _threads,
    "accel.predict_combine": _array_bytes,
    "accel.correct_combine": _array_bytes,
}


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self.absent: list[str] = []
        self._lists: list[list] = []
        self._local = threading.local()
        self._lock = threading.Lock()

    def _thread_state(self):
        state = getattr(self._local, "state", None)
        if state is None:
            state = self._local.state = ([], [])
            with self._lock:
                self._lists.append(state[0])
        return state

    def wrap(self, name: str, fn, value=None):
        """Return fn recording one span per call under `name`."""
        nid = len(self.names)
        self.names.append(name)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            spans, stack = tracer._thread_state()
            idx = len(spans)
            parent = stack[-1] if stack else -1
            spans.append(None)
            stack.append(idx)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                spans[idx] = (nid, t0, clock(), parent, math.nan)
                raise
            finally:
                stack.pop()
            t1 = clock()
            v = 0.0
            if value is not None:
                try:
                    v = value(args, kwargs, out)
                except (AttributeError, TypeError, OSError):
                    v = math.nan
            spans[idx] = (nid, t0, t1, parent, v)
            return out

        return traced

    def install(self) -> None:
        """Wrap every boundary at each site where dampedwave binds it."""
        swap = {}
        for name, (modname, attr) in BOUNDARIES.items():
            fn = getattr(_module(modname), attr, None)
            if not callable(fn):
                self.absent.append(name)
                continue
            swap[id(fn)] = (fn, self.wrap(name, fn, VALUES.get(name)))
        for modname in FFT_MODULES:
            mod = _module(modname)
            for attr in FFT_FUNCTIONS:
                fn = getattr(mod, attr, None)
                if callable(fn):
                    wrapped = self.wrap(f"fft.{modname}.{attr}", fn)
                    setattr(mod, attr, wrapped)
                    swap[id(fn)] = (fn, wrapped)
        for modname, mod in list(sys.modules.items()):
            if modname != "dampedwave" and not modname.startswith("dampedwave."):
                continue
            for key, val in list(vars(mod).items()):
                if isinstance(val, dict):
                    for dkey, dval in list(val.items()):
                        hit = swap.get(id(dval))
                        if hit is not None and hit[0] is dval:
                            val[dkey] = hit[1]
                    continue
                hit = swap.get(id(val))
                if hit is not None and hit[0] is val:
                    setattr(mod, key, hit[1])

    def _table(self):
        """All spans as arrays; parent indices are global, -1 for roots."""
        rows = []
        offset = 0
        for spans in self._lists:
            for nid, t0, t1, parent, v in spans:
                rows.append((nid, t0, t1, parent + offset if parent >= 0 else -1, v))
            offset += len(spans)
        cols = np.array(rows, dtype=np.float64).reshape(-1, 5).T
        return {
            "nid": cols[0].astype(np.int64),
            "t0": cols[1],
            "t1": cols[2],
            "parent": cols[3].astype(np.int64),
            "value": cols[4],
        }

    def save(self, path: str) -> None:
        np.savez(path, names=np.array(self.names), **self._table())

    def metrics(self) -> dict:
        """Per-layer metrics from the recorded spans (see README.md)."""
        tab = self._table()
        nid, parent, value = tab["nid"], tab["parent"], tab["value"]
        dur = tab["t1"] - tab["t0"]
        rooted = parent >= 0
        child = np.bincount(parent[rooted], weights=dur[rooted], minlength=dur.size)
        self_time = dur - child

        def outer(*names):
            """Spans of these boundaries not nested directly in one of them."""
            ids = [i for i, n in enumerate(self.names) if n in names]
            mask = np.isin(nid, ids)
            return mask & ~(rooted & mask[np.where(rooted, parent, 0)])

        def have(*names):
            return not any(n in self.absent for n in names)

        m = {}
        fft = outer(*(n for n in self.names if n.startswith("fft.")))
        m["fft.calls"] = int(fft.sum())
        m["fft.busy_s"] = float(dur[fft].sum())
        m["fft.us_per_call"] = _ratio(dur[fft].sum() * 1e6, fft.sum())
        for fn in ACCEL:
            if have(f"accel.{fn}"):
                sel = outer(f"accel.{fn}")
                m[f"accel.{fn}.busy_s"] = float(dur[sel].sum())
                m[f"accel.{fn}.calls"] = int(sel.sum())
                if fn in COMBINES:
                    m[f"accel.{fn}.computed_bytes_per_call"] = _ratio(
                        value[sel].sum(), sel.sum()
                    )
        if have("solver.run"):
            run = outer("solver.run")
            steps = value[run].sum()
            m["solver.steps"] = steps
            m["solver.us_per_step"] = _ratio(dur[run].sum() * 1e6, steps)
            m["solver.run.self_s"] = float(self_time[run].sum())
        if have("solver.measure_lifespan"):
            members = outer("solver.measure_lifespan")
            m["solver.measure_lifespan.busy_s"] = float(dur[members].sum())
            m["lifespan.uncensored_ratio"] = _ratio(value[members].sum(), members.sum())
            if have("harness.run_lifespan"):
                ladders = np.flatnonzero(outer("harness.run_lifespan"))
                tails = [dur[members & (parent == i)].max(initial=0.0) for i in ladders]
                m["lifespan.tail_share"] = _ratio(sum(tails), dur[ladders].sum())
        for fn in ("hdotneg_norm", "hs_norm"):
            if have(f"norms.{fn}"):
                sel = outer(f"norms.{fn}")
                m[f"norms.{fn}.busy_s"] = float(dur[sel].sum())
                m[f"norms.{fn}.calls"] = int(sel.sum())
        if have("harness.emit_outputs"):
            sel = outer("harness.emit_outputs")
            m["harness.emit_outputs.busy_s"] = float(dur[sel].sum())
            m["harness.emit_outputs.bytes"] = float(value[sel].sum())
        for fn in ("check_bounds", "weight_constant"):
            if have(f"testfunc.{fn}"):
                m[f"testfunc.{fn}.busy_s"] = float(dur[outer(f"testfunc.{fn}")].sum())
        if have("harness.run_sweep", "harness.emit_outputs", *RUNNERS):
            jobs = outer("harness.emit_outputs", *RUNNERS)
            busy = capacity = 0.0
            for i in np.flatnonzero(outer("harness.run_sweep")):
                inside = jobs & (tab["t0"] >= tab["t0"][i]) & (tab["t1"] <= tab["t1"][i])
                busy += dur[inside].sum()
                capacity += value[i] * dur[i]
            m["harness.sweep.efficiency"] = _ratio(busy, capacity)
        profiles = [n for n in BOUNDARIES if n.startswith("profiles.") and have(n)]
        if profiles:
            m["profiles.busy_s"] = float(dur[outer(*profiles)].sum())
        return {k: float(v) for k, v in m.items() if math.isfinite(v)}


def _module(modname: str):
    try:
        return importlib.import_module(modname)
    except ImportError:
        return None


def _ratio(num, den) -> float:
    """num / den, or 0 where the layer did no work in this workload."""
    return float(num) / float(den) if den else 0.0
