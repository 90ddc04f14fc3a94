"""Spans around blocksieve's public functions, recorded from outside the package.

Each target is wrapped by rebinding every module attribute (inside the
blocksieve package) that holds the original function, so calls between
blocksieve modules are caught as well as the benchmark's own calls.  Spans
stay in memory as tuples (name, start, end, parent span index, request index,
extra) and are written out once, at the end of the run.
"""

from __future__ import annotations

import importlib
import json
import sys
from time import perf_counter

# span name -> (module, attribute path); the span name's prefix is the layer.
TARGETS = {
    "solver.solve": ("blocksieve.solver", "solve"),
    "rules.check": ("blocksieve.rules", "check"),
    "coalgebra.validate": ("blocksieve.coalgebra", "validate"),
    "coalgebra.dual_algebra": ("blocksieve.coalgebra", "dual_algebra"),
    "coalgebra.multiply": ("blocksieve.coalgebra", "Algebra.multiply"),
    "analyzer.analyze": ("blocksieve.analyzer", "analyze"),
    "analyzer.radical": ("blocksieve.analyzer", "radical"),
    "analyzer.coradical_filtration": ("blocksieve.analyzer", "coradical_filtration"),
    "analyzer.simple_components": ("blocksieve.analyzer", "simple_components"),
    "analyzer.q_table": ("blocksieve.analyzer", "q_table"),
    "linalg.echelon": ("blocksieve.linalg", "echelon"),
    "linalg.nullspace": ("blocksieve.linalg", "nullspace"),
}


def _matrix_shape(args, kwargs):
    rows = args[0] if args else kwargs.get("rows")
    try:
        return (len(rows), len(rows[0]) if len(rows) else 0)
    except TypeError:
        return None


# Extra data recorded per span, for the targets that need it.
EXTRAS = {"linalg.echelon": _matrix_shape}


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.stack: list[int] = []
        self.request = -1
        self.absent: list[str] = []
        self._undo: list = []

    def call(self, name, fn, args=(), kwargs=None, extra=None):
        """Run fn(*args, **kwargs) inside a span named name."""
        kwargs = kwargs or {}
        idx = len(self.spans)
        self.spans.append(None)
        parent = self.stack[-1] if self.stack else -1
        self.stack.append(idx)
        t0 = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            t1 = perf_counter()
            self.stack.pop()
            info = extra(args, kwargs) if extra else None
            self.spans[idx] = (name, t0, t1, parent, self.request, info)

    def _wrapper(self, name, fn):
        extra = EXTRAS.get(name)

        def traced(*args, **kwargs):
            return self.call(name, fn, args, kwargs, extra)

        return traced

    def install(self):
        """Wrap every target that exists; record the missing ones as absent."""
        packages = [m for n, m in list(sys.modules.items())
                    if m is not None and (n == "blocksieve" or n.startswith("blocksieve."))]
        for name, (module_name, path) in TARGETS.items():
            try:
                owner = importlib.import_module(module_name)
            except ImportError:
                self.absent.append(name)
                continue
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part, None)
            original = getattr(owner, attr, None) if owner is not None else None
            if not callable(original):
                self.absent.append(name)
                continue
            wrapped = self._wrapper(name, original)
            holders = [owner] if outer else [m for m in packages if original in vars(m).values()]
            for holder in holders:
                for key, value in list(vars(holder).items()):
                    if value is original:
                        setattr(holder, key, wrapped)
                        self._undo.append((holder, key, original))

    def uninstall(self):
        for holder, key, original in reversed(self._undo):
            setattr(holder, key, original)
        self._undo.clear()

    def aggregate(self) -> dict[str, dict]:
        """Per span name: calls, total seconds, self seconds, largest matrix shape.

        Self time is a span's duration minus the time its direct children
        cover; spans nest strictly in one thread, so children never overlap.
        """
        child = [0.0] * len(self.spans)
        for (_name, t0, t1, parent, _req, _extra) in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        out: dict[str, dict] = {}
        for i, (name, t0, t1, _parent, _req, extra) in enumerate(self.spans):
            a = out.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0,
                                      "max_rows": 0, "max_cols": 0})
            a["calls"] += 1
            a["s"] += t1 - t0
            a["self_s"] += t1 - t0 - child[i]
            if extra:
                a["max_rows"] = max(a["max_rows"], extra[0])
                a["max_cols"] = max(a["max_cols"], extra[1])
        return out

    def write(self, path):
        """One JSON line per span, times relative to the first span."""
        base = self.spans[0][1] if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            for i, (name, t0, t1, parent, req, extra) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": name, "start": t0 - base, "end": t1 - base,
                                     "parent": parent, "request": req, "extra": extra}) + "\n")
