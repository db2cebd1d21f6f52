"""Outside-in tracing of trajprior: wraps public functions where callers look them up.

Modules import their collaborators by name (``from ._kernels import
traverse_cells``), so each wrapper is installed on the module that makes the
call, e.g. ``raster.traverse_cells`` and ``selection.frechet_dp``. Nothing
under ``src/`` is edited.

A span is ``[name, start, end, parent, counters, agg]``: times come from
``time.perf_counter`` and ``parent`` is the index of the enclosing span in
``Tracer.spans``, where spans are kept in memory until the process ends.
Per-call kernels are not given spans of their own: their calls, time and
counters are summed into the enclosing span's ``agg`` entry, which keeps the
overhead of wrapping thousands of calls small. A thread with no open span
(a rasterizer pool worker) takes the main thread's innermost span as parent.
"""
from __future__ import annotations

import functools
import os
import threading
import time

# (module, attribute, span name, aggregate per parent?)
# Functions the CLI calls through a module attribute are wrapped on their own
# module; kernels imported by name are wrapped on the importing module.
WRAPS = [
    ("ingest", "parse_trajectories", "ingest.parse", False),
    ("ingest", "parse_centerlines", "ingest.parse", False),
    ("ingest", "filter_by_length", "ingest.filter", False),
    ("ingest", "smooth_set", "ingest.smooth_set", False),
    ("ingest", "smooth", "ingest.smooth", True),
    ("ingest", "retention_check", "ingest.retention", False),
    ("ingest", "serialize_trajectories", "ingest.serialize", False),
    ("raster", "rasterize_trajectories", "raster.rasterize_trajectories", False),
    ("raster", "traverse_cells", "_kernels.traverse_cells", True),
    ("raster", "heatmap_to_feature", "raster.heatmap_to_feature", False),
    ("metrics", "rasterize_polylines", "raster.rasterize_polylines", False),
    ("selection", "kmeans", "selection.kmeans", False),
    ("selection", "fps", "selection.fps", False),
    ("selection", "frechet_dp", "_kernels.frechet_dp", True),
    ("fusion", "fuse_pipeline", "fusion.fuse_pipeline", False),
    ("fusion", "finite_difference_check", "fusion.grad_check", False),
    ("fusion", "predict_offsets", "fusion.predict_offsets", True),
    ("fusion", "warp", "fusion.warp", True),
    ("fusion", "compute_logits", "fusion.compute_logits", True),
    ("fusion", "confidence_fuse", "fusion.confidence_fuse", True),
    ("metrics", "prior_iou", "metrics.prior_iou", False),
    ("metrics", "ae_dist", "metrics.ae_dist", False),
    ("metrics", "sample_polyline_points", "metrics.sample_points", False),
    ("tensorio", "save_tensors", "tensorio.save", False),
    ("tensorio", "load_tensors", "tensorio.load", False),
]


def _segments(polylines) -> int:
    return sum(len(p.points) - 1 for p in polylines)


def _count(name, args, result) -> dict:
    """Work counters read from a call's arguments and result."""
    if name == "ingest.filter":
        return {"traj_in": len(args[0]), "traj_kept": len(result)}
    if name == "raster.rasterize_trajectories":
        return {"segments": _segments(args[0].trajectories),
                "hit_cells": int((result.count > 0).sum())}
    if name == "raster.rasterize_polylines":
        return {"segments": _segments(args[0])}
    if name == "_kernels.frechet_dp":
        return {"cells": len(args[0]) * len(args[1])}
    if name == "selection.kmeans":
        return {"iterations": int(result.iterations)}
    if name == "metrics.ae_dist":
        pairs = (args[0].size // 2) * (args[1].size // 2)
        return {"pairs": pairs, "bytes": 24 * pairs}
    if name in ("tensorio.save", "tensorio.load"):
        return {"bytes": os.path.getsize(args[0])}
    return {}


class Tracer:
    def __init__(self):
        self.spans = []   # [name, start, end, parent_index, counters, agg]
        self._stacks = {}
        self._main = threading.get_ident()
        self._lock = threading.Lock()
        self._fps_state = None  # running-minimum bookkeeping of the open fps call

    def _stack(self):
        return self._stacks.setdefault(threading.get_ident(), [])

    def _parent(self):
        stack = self._stack()
        if stack:
            return stack[-1]
        main = self._stacks.get(self._main)
        return main[-1] if main else None

    def span(self, name, fn, *args, **kwargs):
        """Run fn inside a named span and return its result."""
        parent = self._parent()
        index = len(self.spans)
        rec = [name, time.perf_counter(), None, parent, {}, {}]
        self.spans.append(rec)
        stack = self._stack()
        stack.append(index)
        try:
            result = fn(*args, **kwargs)
        finally:
            rec[2] = time.perf_counter()
            stack.pop()
        rec[4] = _count(name, args, result)
        return result

    def _aggregate(self, name, fn, *args, **kwargs):
        start = time.perf_counter()
        result = fn(*args, **kwargs)
        elapsed = time.perf_counter() - start
        counters = _count(name, args, result)
        with self._lock:
            parent = self._parent()
            if parent is not None:
                entry = self.spans[parent][5].setdefault(name, {"calls": 0, "s": 0.0})
                entry["calls"] += 1
                entry["s"] += elapsed
                for key, value in counters.items():
                    entry[key] = entry.get(key, 0) + value
            if name == "_kernels.frechet_dp" and self._fps_state is not None:
                self._fps_eval(args, result)
        return result

    def _fps_eval(self, args, dist):
        """Count a Frechet evaluation made by fps as useful when it lowers
        the running minimum of the trajectory it measures."""
        state = self._fps_state
        src = state["index"].get(id(args[0]))
        dst = state["index"].get(id(args[1]))
        if src is None or dst is None:
            return
        state["selected"].add(src)
        state["evals"] += 1
        best = state["min"].get(dst, float("inf"))
        if dst not in state["selected"] and dist < best:
            state["useful"] += 1
            state["min"][dst] = dist

    def _fps(self, fn, ts, *args, **kwargs):
        index_of = {id(t.points): i for i, t in enumerate(ts.trajectories)}
        self._fps_state = {"index": index_of, "selected": set(), "min": {},
                           "evals": 0, "useful": 0}
        index = len(self.spans)
        try:
            result = self.span("selection.fps", fn, ts, *args, **kwargs)
        finally:
            state, self._fps_state = self._fps_state, None
        self.spans[index][4].update(evals=state["evals"], useful=state["useful"])
        return result

    def install(self, modules: dict) -> dict:
        """Replace each wrapped attribute with a tracing wrapper.

        Returns the originals keyed by ``"module.attr"``.
        """
        originals = {}
        for mod_name, attr, name, aggregate in WRAPS:
            module = modules[mod_name]
            original = getattr(module, attr)
            originals[f"{mod_name}.{attr}"] = original
            if name == "selection.fps":
                wrapper = functools.partial(self._fps, original)
            elif aggregate:
                wrapper = functools.partial(self._aggregate, name, original)
            else:
                wrapper = functools.partial(self.span, name, original)
            setattr(module, attr, wrapper)
        return originals
