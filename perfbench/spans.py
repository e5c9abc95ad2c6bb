"""Spans around the calls into each module of ``subtrack``, from outside it.

A span is recorded by replacing the name that the caller looks up with a
timing wrapper: ``trainer`` binds the clustering, merging and memory functions
at import, so those are wrapped in ``trainer``'s namespace, while
``clustering`` reaches ``kernels`` through the module. A wrapped name that no
longer exists is reported as absent instead of failing the run.

A span's self time is its duration minus the spans it caused. Per-layer self
times plus ``trace.unaccounted_s`` (the benchmark's own glue and the tracer's
bookkeeping) add up to the traced operation's wall time.

Count metrics (calls, frames, units, samples, ops, bytes) and times are
totals per operation; size metrics (``.n``, ``.nnz``, edges, components,
core points, clusters, outliers) are means per call.
"""

from __future__ import annotations

import functools
import importlib
import time
from collections import defaultdict

LAYERS = ("trainer", "nftp", "clustering", "kernels", "merging", "memory", "experiment",
          "evaluation")

# Every per-layer metric in print order; a name's unit follows from its suffix.
PER_LAYER = [
    "storage.read_dataset.s", "storage.read_dataset.bytes", "storage.read_weights.s",
    "trainer.encode_frames.calls", "trainer.encode_frames.frames", "trainer.encode_frames.s",
    "trainer.cluster_epoch.s", "trainer.iterations.self_s", "trainer.samples",
    "nftp.nftp_all.s", "nftp.frames_in", "nftp.frames_filtered", "nftp.units",
    "clustering.k_reciprocal_jaccard.s", "clustering.k_reciprocal_jaccard.n",
    "clustering.expansion.self_s", "clustering.degenerate_fallback",
    "kernels.jaccard_from_weights.s", "kernels.jaccard_from_weights.n",
    "kernels.jaccard_from_weights.nnz", "kernels.jaccard_from_weights.computed_ops",
    "kernels.jaccard_from_weights.computed_bytes",
    "kernels.dbscan_labels.s", "clustering.dbscan.core_points", "clustering.dbscan.clusters",
    "clustering.dbscan.outliers",
    "merging.s", "merging.edges", "merging.largest_component",
    "memory.combined_loss.calls", "memory.combined_loss.s", "memory.positive_set_size.mean",
    "memory.init_memory.s", "memory.update.calls", "memory.update.s",
    "experiment.final_metrics.s", "evaluation.map_cmc.s",
    *(f"{layer}.self_s" for layer in LAYERS),
    "trace.run_s", "trace.overhead_s", "trace.unaccounted_s",
]


def unit(name: str) -> str:
    if name.endswith((".s", "_s")):
        return "s"
    return "B" if name.endswith("bytes") else "count"


# Names of per-call sizes; their totals are divided by the call count.
_MEAN_OF = {
    "clustering.k_reciprocal_jaccard.n": "clustering.k_reciprocal_jaccard.calls",
    "kernels.jaccard_from_weights.n": "kernels.jaccard_from_weights.calls",
    "kernels.jaccard_from_weights.nnz": "kernels.jaccard_from_weights.calls",
    "clustering.dbscan.core_points": "clustering.dbscan.calls",
    "clustering.dbscan.clusters": "clustering.dbscan.calls",
    "clustering.dbscan.outliers": "clustering.dbscan.calls",
    "merging.edges": "merging.build_graph.calls",
    "merging.largest_component": "merging.build_graph.calls",
    "memory.positive_set_size.mean": "memory.combined_loss.calls",
}


def _encode_counts(c, args, kwargs, out):
    c["trainer.encode_frames.frames"] += len(args[1])


def _nftp_counts(c, args, kwargs, out):
    c["nftp.frames_in"] += sum(len(frames) for _, frames in args[0])
    c["nftp.frames_filtered"] += sum(len(ft.filtered_indices) for ft, _ in out)
    c["nftp.units"] += sum(len(sts) for _, sts in out)


def _jaccard_counts(c, args, kwargs, out):
    c["clustering.k_reciprocal_jaccard.n"] += len(args[0])
    c["clustering.degenerate_fallback"] += int(out.degenerate_fallback)


def _kernel_counts(c, args, kwargs, out):
    import numpy as np

    n = len(args[0])
    c["kernels.jaccard_from_weights.n"] += n
    c["kernels.jaccard_from_weights.nnz"] += int(np.count_nonzero(args[0]))
    # Computed for the dense numpy kernel: per row, an n x n minimum reads W
    # and writes a temporary that the row sum reads back.
    c["kernels.jaccard_from_weights.computed_ops"] += n ** 3
    c["kernels.jaccard_from_weights.computed_bytes"] += 3 * 8 * n ** 3


def _dbscan_counts(c, args, kwargs, out):
    import numpy as np

    dist, eps, min_samples = args[:3]
    values = getattr(dist, "values", dist)
    c["clustering.dbscan.core_points"] += int(((values <= eps).sum(axis=1) >= min_samples).sum())
    c["clustering.dbscan.clusters"] += int(out.max(initial=0))
    c["clustering.dbscan.outliers"] += int(np.count_nonzero(out == 0))


def _largest_component(nodes, edges) -> int:
    parent = {x: x for x in nodes}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a, b in edges:
        parent[find(a)] = find(b)
    sizes = defaultdict(int)
    for x in nodes:
        sizes[find(x)] += 1
    return max(sizes.values(), default=0)


def _graph_counts(c, args, kwargs, out):
    c["merging.edges"] += len(out.edges)
    c["merging.largest_component"] += _largest_component(out.nodes, out.edges)


def _loss_counts(c, args, kwargs, out):
    c["memory.positive_set_size.mean"] += len(args[2])


def _batch_counts(c, args, kwargs, out):
    c["trainer.samples"] += len(args[1])


# (module of subtrack, name looked up there, span name, layer, counter hook)
SPANS = [
    ("trainer", "train", "trainer.train", "trainer", None),
    ("trainer", "cluster_epoch", "trainer.cluster_epoch", "trainer", None),
    ("trainer", "encode_frames", "trainer.encode_frames", "trainer", _encode_counts),
    ("experiment", "inference_features", "trainer.inference_features", "trainer", None),
    ("nftp", "nftp_all", "nftp.nftp_all", "nftp", _nftp_counts),
    ("trainer", "sub_cluster_generate", "clustering.sub_cluster_generate", "clustering", None),
    ("clustering", "k_reciprocal_jaccard", "clustering.k_reciprocal_jaccard", "clustering",
     _jaccard_counts),
    ("clustering", "dbscan", "clustering.dbscan", "clustering", _dbscan_counts),
    ("kernels", "jaccard_from_weights", "kernels.jaccard_from_weights", "kernels", _kernel_counts),
    ("kernels", "dbscan_labels", "kernels.dbscan_labels", "kernels", None),
    ("trainer", "build_graph", "merging.build_graph", "merging", _graph_counts),
    ("trainer", "progressive_positive_sets", "merging.progressive_positive_sets", "merging", None),
    ("trainer", "init_memory", "memory.init_memory", "memory", None),
    ("trainer", "combined_loss", "memory.combined_loss", "memory", _loss_counts),
    ("trainer", "update_memory", "memory.update_memory", "memory", _batch_counts),
    ("trainer", "update_hard_memory", "memory.update_hard_memory", "memory", None),
    ("experiment", "final_metrics", "experiment.final_metrics", "experiment", None),
    ("experiment", "map_cmc", "evaluation.map_cmc", "evaluation", None),
    ("experiment", "pairwise_prf", "evaluation.pairwise_prf", "evaluation", None),
    ("experiment", "cluster_stats", "evaluation.cluster_stats", "evaluation", None),
]


class Tracer:
    """Accumulates span times and counts over the operations it traces."""

    def __init__(self):
        self.counts = defaultdict(float)
        self.layer_self = defaultdict(float)
        self.absent = []
        self._children = []  # time covered by child spans, one slot per open span
        self._originals = []

    def _wrap(self, fn, name, layer, hook):
        counts, children, layer_self, absent = (self.counts, self._children, self.layer_self,
                                                self.absent)

        @functools.wraps(fn)
        def span(*args, **kwargs):
            children.append(0.0)
            t0 = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                child = children.pop()
            counts[name + ".calls"] += 1
            counts[name + ".s"] += t1 - t0
            counts[name + ".self_s"] += t1 - t0 - child
            layer_self[layer] += t1 - t0 - child
            if hook is not None:
                try:
                    hook(counts, args, kwargs, out)
                except (AttributeError, IndexError, KeyError, TypeError):
                    # the call's signature changed: its counts are absent, its times stay
                    if name + " counts" not in absent:
                        absent.append(name + " counts")
            if children:
                # the hook's time is bookkeeping: keep it out of the parent's self time
                children[-1] += time.perf_counter() - t0
            return out

        return span

    def install(self) -> None:
        for module, attr, name, layer, hook in SPANS:
            try:
                mod = importlib.import_module(f"subtrack.{module}")
                fn = getattr(mod, attr)
            except (ImportError, AttributeError):
                if name not in self.absent:
                    self.absent.append(name)
                continue
            self._originals.append((mod, attr, fn))
            setattr(mod, attr, self._wrap(fn, name, layer, hook))

    def uninstall(self) -> None:
        for mod, attr, fn in reversed(self._originals):
            setattr(mod, attr, fn)
        self._originals.clear()

    def metrics(self, traced: list[float], untraced: list[float]) -> dict[str, float]:
        """Per-operation means of every per-layer metric.

        ``traced`` and ``untraced`` are the wall times of the operations run
        with and without the spans installed.
        """
        c, ops, run_s = self.counts, len(traced), sum(traced)
        out = {name: c[name] / max(c[calls], 1) for name, calls in _MEAN_OF.items()}
        for name in ("trainer.encode_frames.calls", "trainer.encode_frames.frames",
                     "trainer.encode_frames.s", "trainer.cluster_epoch.s", "trainer.samples",
                     "nftp.nftp_all.s", "nftp.frames_in", "nftp.frames_filtered", "nftp.units",
                     "clustering.k_reciprocal_jaccard.s", "clustering.degenerate_fallback",
                     "kernels.jaccard_from_weights.s", "kernels.jaccard_from_weights.computed_ops",
                     "kernels.jaccard_from_weights.computed_bytes", "kernels.dbscan_labels.s",
                     "memory.combined_loss.calls", "memory.combined_loss.s",
                     "memory.init_memory.s", "experiment.final_metrics.s",
                     "evaluation.map_cmc.s"):
            out[name] = c[name] / ops
        out["trainer.iterations.self_s"] = c["trainer.train.self_s"] / ops
        out["clustering.expansion.self_s"] = c["clustering.k_reciprocal_jaccard.self_s"] / ops
        out["merging.s"] = (c["merging.build_graph.s"] + c["merging.progressive_positive_sets.s"]) / ops
        out["memory.update.calls"] = (c["memory.update_memory.calls"]
                                      + c["memory.update_hard_memory.calls"]) / ops
        out["memory.update.s"] = (c["memory.update_memory.s"] + c["memory.update_hard_memory.s"]) / ops
        for layer in LAYERS:
            out[f"{layer}.self_s"] = self.layer_self[layer] / ops
        out["trace.run_s"] = run_s / ops
        out["trace.unaccounted_s"] = (run_s - sum(self.layer_self.values())) / ops
        out["trace.overhead_s"] = run_s / ops - sum(untraced) / len(untraced)
        return out


class CallCounter:
    """Counts the calls of one looked-up name, without timing them."""

    def __init__(self, module: str, attr: str):
        self.calls = 0
        try:
            self._module = importlib.import_module(f"subtrack.{module}")
            self._fn = getattr(self._module, attr)
        except (ImportError, AttributeError):
            self._module = None  # absent: the count stays 0
        self._attr = attr

    def __enter__(self):
        if self._module is not None:
            fn = self._fn

            @functools.wraps(fn)
            def counted(*args, **kwargs):
                self.calls += 1
                return fn(*args, **kwargs)

            setattr(self._module, self._attr, counted)
        return self

    def __exit__(self, *exc):
        if self._module is not None:
            setattr(self._module, self._attr, self._fn)
