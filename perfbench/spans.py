"""Per-layer spans recorded by wrapping the package's public functions.

Each layer is a name and the functions that make it up.  Installing a
tracer replaces every reference to those functions in the loaded
``mdiqkd`` modules (the names the callers look up) with a wrapper that
records a span: layer, start, end and the enclosing span.  Spans stay in
memory until the run ends.  A function that no longer exists is
skipped; a layer whose functions are missing or never called reports
``None``.
"""

import gzip
import os
import sys
import time
from array import array
from contextlib import contextmanager

# (layer, defining module, function names or "prefix*" patterns)
LAYERS = (
    ("config.load_scenario", "mdiqkd.config", ("load_scenario",)),
    ("sources.build_distribution", "mdiqkd.sources", ("build_distribution",)),
    ("bsm.propagate", "mdiqkd.bsm", ("propagate",)),
    ("bsm.bell_yield", "mdiqkd.bsm", ("bell_yield",)),
    ("bsm.yield_tables", "mdiqkd.bsm", ("yield_tables",)),
    ("rates.gains", "mdiqkd.rates", ("gains",)),
    ("rates.key_rate", "mdiqkd.rates", ("key_rate",)),
    ("decoy.bounds", "mdiqkd.decoy", ("css_*", "generic_*")),
    ("finite_key.worst_case_decoy", "mdiqkd.finite_key", ("worst_case_decoy",)),
    ("finite_key.gain_interval", "mdiqkd.finite_key", ("gain_interval",)),
    ("sweep.evaluate_point", "mdiqkd.sweep", ("evaluate_point",)),
    ("sweep.write_csv", "mdiqkd.sweep", ("write_csv",)),
)
COUNT_DISTINCT = {"bsm.propagate"}
COUNT_BYTES = {"sweep.write_csv"}


def _functions(module, patterns):
    found = []
    for pattern in patterns:
        if pattern.endswith("*"):
            found.extend(
                value
                for name, value in sorted(vars(module).items())
                if name.startswith(pattern[:-1])
                and callable(value)
                and getattr(value, "__module__", None) == module.__name__
            )
        elif callable(getattr(module, pattern, None)):
            found.append(getattr(module, pattern))
    return found


def _written_bytes(args, kwargs):
    out = kwargs.get("out", args[1] if len(args) > 1 else None)
    return os.path.getsize(out) if isinstance(out, str) and os.path.isfile(out) else 0


class Tracer:
    """Records spans while installed and active."""

    def __init__(self):
        self.names = [layer for layer, _, _ in LAYERS]
        self.layer_ids = array("i")
        self.parents = array("i")
        self.starts = array("d")
        self.ends = array("d")
        self.stack = []
        self.active = False
        self.active_s = 0.0
        self.found = set()
        self.distinct = {name: set() for name in COUNT_DISTINCT}
        self.bytes = {name: 0 for name in COUNT_BYTES}
        self._patched = []

    def _wrap(self, layer_id, fn):
        name = self.names[layer_id]
        distinct = self.distinct.get(name)
        count_bytes = name in COUNT_BYTES
        perf_counter = time.perf_counter

        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            index = len(self.starts)
            self.layer_ids.append(layer_id)
            self.parents.append(self.stack[-1] if self.stack else -1)
            self.ends.append(0.0)
            self.stack.append(index)
            if distinct is not None:
                key = (args, tuple(sorted(kwargs.items())))
                try:
                    distinct.add(key)
                except TypeError:  # unhashable arguments, such as arrays
                    distinct.add(repr(key))
            self.starts.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.ends[index] = perf_counter()
                self.stack.pop()
            if count_bytes:
                self.bytes[name] += _written_bytes(args, kwargs)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self):
        modules = [
            m
            for name, m in sorted(sys.modules.items())
            if m is not None and (name == "mdiqkd" or name.startswith("mdiqkd."))
        ]
        for layer_id, (layer, module_name, patterns) in enumerate(LAYERS):
            module = sys.modules.get(module_name)
            if module is None:
                continue
            for fn in _functions(module, patterns):
                self.found.add(layer)
                wrapper = self._wrap(layer_id, fn)
                for caller in modules:
                    for attr, value in list(vars(caller).items()):
                        if value is fn:
                            setattr(caller, attr, wrapper)
                            self._patched.append((caller, attr, fn))
        self._resume()

    def uninstall(self):
        self._pause()
        for caller, attr, fn in reversed(self._patched):
            setattr(caller, attr, fn)
        self._patched.clear()

    def _resume(self):
        self.active = True
        self._since = time.perf_counter()

    def _pause(self):
        if self.active:
            self.active = False
            self.active_s += time.perf_counter() - self._since

    @contextmanager
    def paused(self):
        """Run the benchmark's own checks without recording them."""
        was_active = self.active
        self._pause()
        try:
            yield
        finally:
            if was_active:
                self._resume()

    def summary(self):
        """Per-layer counts and self times; ``None`` for layers not seen."""
        n = len(self.starts)
        child_s = [0.0] * n
        top_s = 0.0
        for i in range(n):
            duration = self.ends[i] - self.starts[i]
            parent = self.parents[i]
            if parent < 0:
                top_s += duration
            else:
                child_s[parent] += duration
        calls = dict.fromkeys(self.names, 0)
        self_s = dict.fromkeys(self.names, 0.0)
        for i in range(n):
            name = self.names[self.layer_ids[i]]
            calls[name] += 1
            self_s[name] += self.ends[i] - self.starts[i] - child_s[i]
        layers = {}
        for name in self.names:
            if name not in self.found or not calls[name]:
                layers[name] = None
                continue
            entry = {"calls": calls[name], "self_s": self_s[name]}
            if name in COUNT_DISTINCT:
                entry["distinct_frac"] = len(self.distinct[name]) / calls[name]
            if name in COUNT_BYTES:
                entry["bytes"] = self.bytes[name]
            layers[name] = entry
        return {
            "layers": layers,
            "spans": n,
            "traced_s": self.active_s,
            "untraced_s": self.active_s - top_s,
        }

    def write(self, path):
        """Write every span as gzip-compressed CSV."""
        with gzip.open(path, "wt", encoding="ascii", compresslevel=1) as handle:
            handle.write("index,layer,start_s,end_s,parent\n")
            origin = self.starts[0] if self.starts else 0.0
            for i in range(len(self.starts)):
                handle.write(
                    f"{i},{self.names[self.layer_ids[i]]},"
                    f"{self.starts[i] - origin:.9f},{self.ends[i] - origin:.9f},"
                    f"{self.parents[i]}\n"
                )
