"""Per-layer call tracing for the benchmark, applied to symdist from outside.

`Tracer.install()` replaces every public function defined in a symdist layer
module with a wrapper that records a span, and rebinds every module
attribute that held the original.  Rebinding matters because several
modules import names directly (`scenario` and `metrics` do
`from .channels import apply`), so patching only the defining module would
miss those calls.  `uninstall()` restores every original binding.

Spans are aggregated as they close rather than stored: per function, the
number of calls, how many raised, inclusive time and self time (inclusive
time minus the time covered by child spans).  Two constructors are counted
without spans: `DenseOperator` (constructions and bytes of the stored
entries) and `QuantumChannel` (largest Choi matrix, in bytes).  Both counts
are computed from array sizes, not measured allocations.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time

LAYERS = ("linalg", "symspace", "channels", "definetti", "metrics", "scenario", "cli")


class Tracer:
    def __init__(self):
        self.stats: dict[str, list] = {}  # name -> [calls, failed, total_s, self_s]
        self.counters: dict[str, float] = {}
        self.reset_counters()
        self._stack = [0.0]
        self._patches: list[tuple[object, str, object]] = []
        self._cache_base = (0, 0)

    # -- recording ----------------------------------------------------------

    def reset_counters(self) -> None:
        # mutated in place: the installed hooks hold this dict
        self.counters.clear()
        self.counters.update({"linalg.DenseOperator.constructed": 0,
                              "linalg.DenseOperator.bytes": 0,
                              "channels.choi_bytes.max": 0,
                              "definetti.mc_approx_reduced.draws": 0})

    def reset(self) -> None:
        for stat in self.stats.values():
            stat[:] = [0, 0, 0.0, 0.0]
        self.reset_counters()
        self._cache_base = self._sym_cache_counts()

    def _wrap(self, name: str, fn, on_result=None):
        stat = self.stats.setdefault(name, [0, 0, 0.0, 0.0])
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack.append(0.0)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                stat[1] += 1
                raise
            finally:
                dt = clock() - t0
                child = stack.pop()
                stat[0] += 1
                stat[2] += dt
                stat[3] += dt - child
                stack[-1] += dt
            if on_result is not None:
                on_result(out)
            return out

        return traced

    def _count_draws(self, reduction) -> None:
        self.counters["definetti.mc_approx_reduced.draws"] += reduction.sample_count

    def _count_operator(self, original):
        counters = self.counters

        def post_init(op):
            original(op)
            counters["linalg.DenseOperator.constructed"] += 1
            counters["linalg.DenseOperator.bytes"] += op.entries.nbytes

        return post_init

    def _count_channel(self, original):
        counters = self.counters

        def post_init(ch):
            original(ch)
            nbytes = ch.choi.entries.nbytes
            if nbytes > counters["channels.choi_bytes.max"]:
                counters["channels.choi_bytes.max"] = nbytes

        return post_init

    # -- patching -----------------------------------------------------------

    @staticmethod
    def _sym_cache_counts() -> tuple[int, int]:
        """(hits, misses) of the memo cache behind sym_basis, if it has one."""
        cached = getattr(importlib.import_module("symdist.symspace"),
                         "_sym_basis_arrays", None)
        if cached is None or not hasattr(cached, "cache_info"):
            return 0, 0
        info = cached.cache_info()
        return info.hits, info.misses

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        wrappers = {}
        for layer in LAYERS:
            mod = importlib.import_module(f"symdist.{layer}")
            for name, obj in vars(mod).items():
                if (not name.startswith("_") and inspect.isfunction(obj)
                        and obj.__module__ == mod.__name__):
                    full = f"{layer}.{name}"
                    hook = self._count_draws if full == "definetti.mc_approx_reduced" else None
                    wrappers[id(obj)] = (obj, self._wrap(full, obj, hook))
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "symdist"
                                   or mod_name.startswith("symdist.")):
                continue
            for attr, val in list(vars(mod).items()):
                hit = wrappers.get(id(val))
                if hit is not None and hit[0] is val:
                    self._patches.append((mod, attr, val))
                    setattr(mod, attr, hit[1])
        linalg = importlib.import_module("symdist.linalg")
        channels = importlib.import_module("symdist.channels")
        for cls, counter in ((linalg.DenseOperator, self._count_operator),
                             (channels.QuantumChannel, self._count_channel)):
            original = cls.__dict__["__post_init__"]
            self._patches.append((cls, "__post_init__", original))
            setattr(cls, "__post_init__", counter(original))
        self.reset()

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- reporting ----------------------------------------------------------

    def snapshot(self) -> dict[str, float]:
        """Every recorded quantity since the last reset, by metric name."""
        out: dict[str, float] = {}
        for name, (calls, failed, total, self_s) in self.stats.items():
            out[f"{name}.calls"] = calls
            out[f"{name}.failed"] = failed
            out[f"{name}.total_s"] = total
            out[f"{name}.self_s"] = self_s
        out.update(self.counters)
        draws = out.get("definetti.mc_approx_reduced.draws", 0)
        mc_total = out.get("definetti.mc_approx_reduced.total_s", 0.0)
        out["definetti.mc_approx_reduced.us_per_draw"] = (
            mc_total / draws * 1e6 if draws else 0.0)
        hits, misses = self._sym_cache_counts()
        hits -= self._cache_base[0]
        lookups = hits + misses - self._cache_base[1]
        out["symspace.sym_basis.cache_lookups"] = lookups
        out["symspace.sym_basis.cache_hit_ratio"] = hits / lookups if lookups else 0.0
        return out
