"""Spans and counts around calls into reprojkit's public functions.

The tracer wraps each traced function at every ``reprojkit`` module
attribute bound to it (``nms`` lives in both ``adaptation`` and
``frontend``, ``reproject_points`` in four modules), so no call path is
missed, and keeps one span stack per thread so self time stays right
under ``--threads``. Nothing under ``src/`` changes: wrappers are installed
from here, after ``reprojkit.cli`` is imported, and removed again by
``uninstall``.

A span is ``(id, parent, name, start_ns, end_ns, thread, stage)``. Spans
and counts stay in memory until ``dump`` writes them out.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import sys
import threading
import time
from collections import defaultdict
from pathlib import Path

import numpy as np


def _len2d(a) -> int:
    return len(np.atleast_2d(np.asarray(a)))


def _reproject_counts(args, result):
    reasons = result[2]
    return {"points": len(reasons), "accepted": int((reasons == 0).sum())}


def _describe_counts(args, result):
    return {"keypoints": _len2d(args["xy"])}


def _match_counts(args, result):
    return {"similarities": _len2d(args["desc1"]) * _len2d(args["desc2"])}


def _nms_counts(args, result):
    heat = np.asarray(args["heatmap"], dtype=np.float64)
    return {"candidates": int((heat >= args["threshold"]).sum())}


def _cells_counts(args, result):
    return {"positives": len(result.positives)}


def _ransac_counts(args, result):
    return {"matches": _len2d(args["pts1"]), "inliers": int(result.inliers.sum())}


def _write_counts(args, result):
    root = Path(args["path"])
    files = [root / "manifest.json", *sorted((root / "frames").iterdir())]
    return {"bytes": sum(p.stat().st_size for p in files)}


# (layer name, module, attribute path, count hook). A dotted attribute is
# a method, patched on its class; a plain one is a module function,
# patched at every binding.
TARGETS = [
    ("scene.render_view", "reprojkit.scene", "render_view", None),
    ("textures.sample", "reprojkit.textures", "CheckerTexture.sample", None),
    ("textures.sample", "reprojkit.textures", "StripeTexture.sample", None),
    ("textures.sample", "reprojkit.textures", "NoiseTexture.sample", None),
    ("dataset.write_dataset", "reprojkit.dataset", "write_dataset", _write_counts),
    ("dataset.read_dataset", "reprojkit.dataset", "read_dataset", None),
    ("dataset.view", "reprojkit.dataset", "Dataset.view", None),
    ("geometry.robust_depth_map", "reprojkit.geometry", "robust_depth_map", None),
    ("geometry.reproject_points", "reprojkit.geometry", "reproject_points",
     _reproject_counts),
    ("frontend.detect", "reprojkit.frontend", "detect", None),
    ("frontend.describe", "reprojkit.frontend", "describe", _describe_counts),
    ("frontend.match_mnn", "reprojkit.frontend", "match_mnn", _match_counts),
    ("adaptation.nms", "reprojkit.adaptation", "nms", _nms_counts),
    ("adaptation.pseudo_labels_for_frame", "reprojkit.adaptation",
     "pseudo_labels_for_frame", None),
    ("correspondence.cell_correspondence_reprojection", "reprojkit.correspondence",
     "cell_correspondence_reprojection", _cells_counts),
    ("evaluation.estimate_homography", "reprojkit.evaluation.homography",
     "estimate_homography", _ransac_counts),
    ("evaluation.fit_homography", "reprojkit.evaluation.homography",
     "fit_homography", None),
    ("evaluation.estimate_essential", "reprojkit.evaluation.pose",
     "estimate_essential", _ransac_counts),
    ("evaluation.register_pair", "reprojkit.evaluation.registration",
     "register_pair", None),
    ("evaluation.kabsch_weighted", "reprojkit.evaluation.registration",
     "kabsch_weighted", None),
    ("evaluation.chamfer_distance", "reprojkit.evaluation.registration",
     "chamfer_distance", None),
    ("losses.descriptor_loss", "reprojkit.losses", "descriptor_loss", None),
    ("losses.detector_loss", "reprojkit.losses", "detector_loss", None),
    ("config.load_config", "reprojkit.config", "load_config", None),
    ("config.load_scene", "reprojkit.config", "load_scene", None),
]


class Tracer:
    """Records spans and counts for one stage process."""

    def __init__(self, stage: str):
        self.stage = stage
        self.spans: list[tuple] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.root: int | None = None
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patched: list[tuple[object, str, object]] = []

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _record(self, sid, parent, name, start, end):
        self.spans.append((sid, parent, name, start, end, threading.get_ident(),
                           self.stage))

    def _count(self, name: str, values: dict):
        with self._lock:
            self.counts[f"{name}.calls"] += 1
            for key, v in values.items():
                self.counts[f"{name}.{key}"] += v

    def span(self, name: str, fn, *args, **kwargs):
        """Run ``fn`` as the root span ``name``; spans that start in worker
        threads with an empty stack become its children."""
        return self._wrap(fn, name, None, counted=False)(*args, **kwargs)

    def _wrap(self, fn, name: str, hook, counted: bool = True):
        sig = inspect.signature(fn) if hook is not None else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            sid = next(self._ids)
            parent = stack[-1] if stack else self.root
            if self.root is None:
                self.root = sid
            stack.append(sid)
            start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                if counted:
                    self._count(name, {"failed": 1})
                raise
            finally:
                end = time.perf_counter_ns()
                stack.pop()
                self._record(sid, parent, name, start, end)
            if counted:
                extra = hook(sig.bind(*args, **kwargs).arguments, result) if hook else {}
                self._count(name, extra)
            return result

        return traced

    def install(self):
        """Wrap every target at every ``reprojkit`` binding of it."""
        modules = [m for n, m in sorted(sys.modules.items())
                   if n == "reprojkit" or n.startswith("reprojkit.")]
        for name, module_name, attr, hook in TARGETS:
            owner = importlib.import_module(module_name)
            if "." in attr:
                cls_name, meth = attr.split(".")
                owner = getattr(owner, cls_name)
                self._patch(owner, meth, self._wrap(getattr(owner, meth), name, hook))
                continue
            original = getattr(owner, attr)
            wrapper = self._wrap(original, name, hook)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, key, wrapper)

    def _patch(self, owner, key, wrapper):
        self._patched.append((owner, key, getattr(owner, key)))
        setattr(owner, key, wrapper)

    def uninstall(self):
        for owner, key, original in reversed(self._patched):
            setattr(owner, key, original)
        self._patched.clear()

    def dump(self) -> dict:
        return {"spans": self.spans, "counts": dict(self.counts)}


def _union_ns(intervals) -> int:
    """Total length covered by a set of (start, end) intervals."""
    total, reach = 0, None
    for start, end in sorted(intervals):
        lo = start if reach is None else max(start, reach)
        if end > lo:
            total += end - lo
            reach = end
    return total


def self_times(spans) -> dict[str, dict[str, float]]:
    """Per span name: total, self and direct-child seconds.

    Span ids are unique within a stage process, so children are keyed by
    (stage, parent id).

    Self time is a span's duration minus the part of its interval that its
    direct children cover, so overlapping children in worker threads are
    not subtracted twice.
    """
    children = defaultdict(list)
    for _sid, parent, _name, start, end, _thread, stage in spans:
        if parent is not None:
            children[stage, parent].append((start, end))
    out: dict[str, dict[str, float]] = defaultdict(
        lambda: {"total_s": 0.0, "self_s": 0.0, "child_s": 0.0})
    for sid, _parent, name, start, end, _thread, stage in spans:
        kids = children.get((stage, sid), [])
        rec = out[name]
        rec["total_s"] += (end - start) / 1e9
        rec["self_s"] += (end - start - _union_ns(kids)) / 1e9
        rec["child_s"] += sum(e - s for s, e in kids) / 1e9
    return dict(out)
