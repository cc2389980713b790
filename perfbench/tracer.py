"""Per-layer tracing for the skewtab benchmark, done from outside the program.

``install`` wraps every public function of each skewtab layer module in
every skewtab namespace that binds it: the modules import names with
``from .x import y``, so patching only the defining module would miss calls
made from other layers.  Each call is a span.  Spans are folded into
per-function aggregates in memory as they close (calls, total time, self
time, generator yields) and reported once at the end.  A span's self time
is its duration minus the time covered by the spans it opened.  A generator
is timed over all its resumptions: each ``next`` is a span, so the work its
consumer does between items counts for the consumer, not the generator.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time

LAYERS = (
    "cli",
    "containment",
    "skew_count",
    "asymptotics",
    "characters",
    "sequences",
    "partitions",
    "exact",
)

# Functions whose distinct argument tuples are counted (reuse ratio = distinct / calls).
KEYED = frozenset({"characters.character"})


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.stats: dict[str, dict] = {}
        self.keys: dict[str, set] = {}
        self._open: list[float] = []  # time covered by children, one slot per open span

    def _stat(self, name: str) -> dict:
        return self.stats.setdefault(
            name, {"calls": 0, "total_s": 0.0, "self_s": 0.0, "yields": 0}
        )

    def _enter(self) -> float:
        self._open.append(0.0)
        return self.clock()

    def _leave(self, stat: dict, start: float) -> None:
        duration = self.clock() - start
        children = self._open.pop()
        stat["total_s"] += duration
        stat["self_s"] += duration - children
        if self._open:
            self._open[-1] += duration

    def wrap(self, name: str, fn):
        """Return ``fn`` wrapped so that each call (or resumption) is a span."""
        stat = self._stat(name)
        if inspect.isgeneratorfunction(fn):

            @functools.wraps(fn)
            def traced_generator(*args, **kwargs):
                stat["calls"] += 1
                inner = fn(*args, **kwargs)
                try:
                    while True:
                        start = self._enter()
                        try:
                            item = next(inner)
                        except StopIteration:
                            return
                        finally:
                            self._leave(stat, start)
                        stat["yields"] += 1
                        yield item
                finally:
                    inner.close()

            return traced_generator

        keys = self.keys.setdefault(name, set()) if name in KEYED else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stat["calls"] += 1
            if keys is not None:
                keys.add(args)
            start = self._enter()
            try:
                return fn(*args, **kwargs)
            finally:
                self._leave(stat, start)

        return traced

    def report(self) -> dict:
        functions = {name: dict(stat) for name, stat in self.stats.items()}
        for name, keys in self.keys.items():
            functions[name]["distinct_keys"] = len(keys)
        layers: dict[str, dict] = {}
        for name, stat in functions.items():
            layer = layers.setdefault(name.split(".")[0], {"calls": 0, "self_s": 0.0})
            layer["calls"] += stat["calls"]
            layer["self_s"] += stat["self_s"]
        return {"functions": functions, "layers": layers}


def _is_traceable(obj, module_name: str) -> bool:
    # plain functions and lru_cache wrappers defined in this module
    return (inspect.isfunction(obj) or hasattr(obj, "cache_info")) and getattr(
        obj, "__module__", None
    ) == module_name


def install(tracer: Tracer, package) -> None:
    """Wrap the public functions of ``package``'s layer modules everywhere they are bound."""
    modules = {
        layer: importlib.import_module(f"{package.__name__}.{layer}") for layer in LAYERS
    }
    wrappers: dict[int, tuple[object, object]] = {}
    for layer, module in modules.items():
        for name, obj in vars(module).items():
            if not name.startswith("_") and _is_traceable(obj, module.__name__):
                wrappers[id(obj)] = (obj, tracer.wrap(f"{layer}.{name}", obj))
    for namespace in (package, *modules.values()):
        for name, obj in list(vars(namespace).items()):
            hit = wrappers.get(id(obj))
            if hit is not None and hit[0] is obj:
                setattr(namespace, name, hit[1])
