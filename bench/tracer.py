"""Call tracing of nmems's public functions, installed from outside the package.

Each traced function is replaced by a wrapper that counts calls and adds up
total time and self time (total minus the time covered by traced calls made
while it runs).  Modules bind imports by name (``sweep`` holds its own
reference to ``nmems``, ``discord_x`` and the rest), so every nmems module
namespace holding the original object is patched.  ``nmems`` is wrapped
outside its ``lru_cache`` so ``cache_info()`` stays readable on the original.
"""

from __future__ import annotations

import importlib
import os
import time

# (module, qualified name) of every traced function; the per-layer metric
# names are "<module>.<qualified name>.{calls,total_s,self_s}"
TRACED = (
    ("linalg", "hermitian_eigen"),
    ("linalg", "as_matrix"),
    ("linalg", "is_hermitian"),
    ("linalg", "trace"),
    ("linalg", "kron"),
    ("linalg", "partial_trace"),
    ("linalg", "psd_sqrt"),
    ("states", "DensityMatrix.from_matrix"),
    ("states", "nmems"),
    ("states", "nmems_ad"),
    ("states", "x_params_of"),
    ("channels", "adc"),
    ("channels", "gadc"),
    ("channels", "kraus_channel"),
    ("channels", "apply_correlated_pair"),
    ("channels", "apply_product_pair"),
    ("measures", "concurrence_x"),
    ("measures", "concurrence_wootters"),
    ("measures", "correlation_matrix"),
    ("measures", "fidelity_from_correlation"),
    ("measures", "teleportation_fidelity"),
    ("measures", "fidelity_ad_closed_form"),
    ("measures", "chsh_criterion"),
    ("measures", "discord_x"),
    ("measures", "von_neumann_entropy"),
    ("measures", "mid_adc"),
    ("measures", "mid_dephasing"),
    ("witnesses", "evaluate"),
    ("sweep", "run_sweep"),
    ("sweep", "emit_csv"),
    ("sweep", "report_headlines"),
    ("cli", "main"),
)


class Stat:
    __slots__ = ("calls", "total_s", "self_s")

    def __init__(self):
        self.calls = 0
        self.total_s = 0.0
        self.self_s = 0.0


class Tracer:
    """Installs the wrappers, collects per-function statistics, and restores
    the original functions on ``uninstall``."""

    def __init__(self):
        self.stats: dict[str, Stat] = {}
        self.counts = {"sweep.rows": 0, "sweep.cells": 0, "sweep.na_cells": 0,
                       "sweep.csv_bytes": 0}
        # time covered by traced children, one slot per open call
        self._child_time: list[float] = []
        self._undo: list[tuple] = []
        self._nmems_cached = None
        self._cache_at_install = (0, 0)
        # nmems cache hits and misses while installed
        self.cache = [0, 0]

    def _wrap(self, name: str, fn, after=None):
        stat = self.stats.setdefault(name, Stat())
        child_time = self._child_time
        clock = time.perf_counter

        def traced(*args, **kwargs):
            child_time.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                covered = child_time.pop()
                stat.calls += 1
                stat.total_s += elapsed
                stat.self_s += elapsed - covered
                if child_time:
                    child_time[-1] += elapsed
            if after is not None:
                after(*args, **kwargs)
            return result

        return traced

    def _set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self) -> None:
        from nmems import states, sweep

        self._nmems_cached = states.nmems
        info = states.nmems.cache_info()
        self._cache_at_install = (info.hits, info.misses)
        modules = {name: importlib.import_module(f"nmems.{name}") for name, _ in TRACED}
        namespaces = [importlib.import_module("nmems"), *modules.values()]
        for mod_name, qualname in TRACED:
            module = modules[mod_name]
            metric = f"{mod_name}.{qualname}"
            if "." in qualname:
                # a classmethod: wrap the function and re-bind it on the class
                cls_name, attr = qualname.split(".")
                cls = getattr(module, cls_name)
                inner = cls.__dict__[attr].__func__
                self._set(cls, attr, classmethod(self._wrap(metric, inner)))
                continue
            original = getattr(module, qualname)
            after = self._count_csv if metric == "sweep.emit_csv" else None
            wrapper = self._wrap(metric, original, after)
            for mod in namespaces:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._set(mod, attr, wrapper)
        for qid, fn in list(sweep.QUANTITIES.items()):
            self._undo.append((sweep.QUANTITIES, qid, fn))
            sweep.QUANTITIES[qid] = self._wrap(f"sweep.quantity.{qid}", fn)

    def uninstall(self) -> None:
        info = self._nmems_cached.cache_info()
        self.cache[0] += info.hits - self._cache_at_install[0]
        self.cache[1] += info.misses - self._cache_at_install[1]
        while self._undo:
            owner, attr, value = self._undo.pop()
            if isinstance(owner, dict):
                owner[attr] = value
            else:
                setattr(owner, attr, value)

    def _count_csv(self, rows, path) -> None:
        self.counts["sweep.rows"] += len(rows)
        for row in rows:
            self.counts["sweep.cells"] += len(row.values)
            self.counts["sweep.na_cells"] += sum(v is None for v in row.values.values())
        self.counts["sweep.csv_bytes"] += os.path.getsize(path)

    def snapshot(self) -> dict:
        """Plain-data statistics of the installed periods, as JSON input."""
        return {
            "functions": {name: [s.calls, s.total_s, s.self_s]
                          for name, s in self.stats.items()},
            "counts": dict(self.counts),
            "nmems_cache": list(self.cache),
        }
