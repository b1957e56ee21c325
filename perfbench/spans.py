"""In-memory spans around calls into qlctx's layers.

``Tracer.install`` replaces module attributes (for example
``qlctx.logic.feasibility`` or ``qlctx.realizability.minimize``) with
wrappers that record one span per call: layer name, start, end, the span
that was open when it started, and the group (the pass) it belongs to.
Because qlctx looks these names up in its module globals at call time, the
wrappers also see the calls qlctx makes internally, such as ``classify``
calling ``two_valued_states``.  Spans stay in memory until ``dump``.
"""

from __future__ import annotations

import importlib
import json
import time
from collections import defaultdict


def _tableau_cells(args, kwargs, result):
    rows = args[0]
    return {"lp.tableau_cells": len(rows) * (len(rows[0]) if rows else 0)}


def _states_returned(args, kwargs, result):
    return {"logic.states_returned": len(result)}


def _lbfgs_counts(args, kwargs, result):
    return {"realizability.lbfgs_nfev": int(result.nfev),
            "realizability.lbfgs_nit": int(result.nit)}


def _kron_mb(args, kwargs, result):
    psi = args[0]
    side = psi.site_dim ** psi.sites
    return {"states.kron_mb": side * side * 16 / 2**20}


# (module, attribute, layer, counter hook)
WRAPPED = (
    ("qlctx.logic", "parse_diagram", "logic.parse", None),
    ("qlctx.logic", "two_valued_states", "logic.enumerate", _states_returned),
    ("qlctx.logic", "classify", "logic.classify", None),
    ("qlctx.logic", "hull_membership", "logic.hull", None),
    ("qlctx.logic", "feasibility", "lp.feasibility", _tableau_cells),
    ("qlctx.realizability", "saturate_orthogonality", "realizability.saturate", None),
    ("qlctx.realizability", "search_realization", "realizability.search", None),
    ("qlctx.realizability", "minimize", "realizability.lbfgs", _lbfgs_counts),
    ("qlctx.realizability", "verify_realization", "realizability.verify", None),
    ("qlctx.states", "spin_total_operators", "states.spin_total_operators", None),
    ("qlctx.states", "singlet_subspace", "states.singlet_subspace", None),
    ("qlctx.states", "kernel", "linalg.kernel", None),
    ("qlctx.states", "apply_local", "states.apply_local", _kron_mb),
    ("qlctx.states", "rotation_unitary", "linalg.rotation_unitary", None),
    ("qlctx.uniqueness", "check_uniqueness", "uniqueness.check_uniqueness", None),
)


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        self.counts: dict[str, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        self.group = None
        self._open: list[int] = []
        self._restore: list[tuple] = []

    def install(self) -> None:
        for module_name, attr, layer, hook in WRAPPED:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            setattr(module, attr, self._wrap(original, layer, hook))
            self._restore.append((module, attr, original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._restore):
            setattr(module, attr, original)
        self._restore.clear()

    def _wrap(self, original, layer, hook):
        def traced(*args, **kwargs):
            span = {"layer": layer, "group": self.group,
                    "parent": self._open[-1] if self._open else None,
                    "start": time.perf_counter(), "end": None}
            index = len(self.spans)
            self.spans.append(span)
            self._open.append(index)
            try:
                result = original(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                self._open.pop()
            counts = self.counts[self.group]
            counts[layer + "_calls"] += 1
            if hook is not None:
                for key, value in hook(args, kwargs, result).items():
                    counts[key] += value
            return result

        return traced

    def layer_times(self, group) -> dict[str, dict[str, float]]:
        """Per layer: total and self time in ms over the group's spans.
        Self time is a span's duration minus that of its direct children."""
        child_time = defaultdict(float)
        for span in self.spans:
            if span["parent"] is not None:
                child_time[span["parent"]] += span["end"] - span["start"]
        out: dict = defaultdict(lambda: {"total": 0.0, "self": 0.0})
        for index, span in enumerate(self.spans):
            if span["group"] != group:
                continue
            duration = span["end"] - span["start"]
            out[span["layer"]]["total"] += 1000 * duration
            out[span["layer"]]["self"] += 1000 * (duration - child_time[index])
        return out

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            json.dump({"spans": self.spans,
                       "counts": {g: dict(c) for g, c in self.counts.items()}},
                      fh)
