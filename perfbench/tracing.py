"""In-memory span tracing of dcnpd's public functions, for the traced run.

`Tracer.install` rebinds every function in `TRACED`, in each loaded dcnpd
module namespace that holds it (``dcnpd.training.mlp_forward`` as well as
``dcnpd.nn.mlp_forward``), to a wrapper that records one span per call:
name, start, end and the span that was open when it began. `uninstall`
restores the originals. Spans stay in memory until `write_spans`.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import sys
import time
from collections import defaultdict

TRACED = {
    "nn": ("mlp_forward", "mlp_backward", "adam_step", "bernoulli_mask"),
    "training": ("train_dcn", "train_dcn_fixed_dropout"),
    "baselines": ("train_direct_nn", "knn_ite"),
    "dcn": ("estimate_ite", "mc_ite_matrix", "dcn_forward"),
    "propensity": ("train_propensity", "predict_propensity"),
    "data": ("load_csv", "save_csv", "generate_synthetic", "standardize", "train_test_split"),
    "experiment": ("run_experiment", "train_model_bundle", "predict_from_bundle"),
    "cli": ("main",),
}

TRACED_NAMES = tuple(f"{module}.{fn}" for module, fns in TRACED.items() for fn in fns)

# Multiply-add count of the dense matmuls, from argument shapes: a layer
# costs 2*rows*fan_in*fan_out in the forward pass and twice that backward
# (one matmul for the weight gradient, one for the input gradient).
FLOP_FACTOR = {"nn.mlp_forward": 2, "nn.mlp_backward": 4}


def _flops(name: str, args: tuple, kwargs: dict) -> int:
    params = args[0] if args else kwargs["params"]
    if name == "nn.mlp_forward":
        batch = args[1] if len(args) > 1 else kwargs["x"]
    else:
        batch = args[2] if len(args) > 2 else kwargs["grad_output"]
    rows = len(batch)
    return FLOP_FACTOR[name] * rows * sum(l.fan_in * l.fan_out for l in params.layers)


class Tracer:
    """Records spans as ``(name, start, end, parent_index)``; index = span id."""

    def __init__(self):
        self.spans: list[tuple[str, float, float, int | None] | None] = []
        self.flops: dict[str, int] = defaultdict(int)
        self._open: list[int | None] = [None]
        self._rebound: list[tuple[object, str, object]] = []

    @contextlib.contextmanager
    def span(self, name: str):
        sid = len(self.spans)
        self.spans.append(None)
        parent = self._open[-1]
        self._open.append(sid)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._open.pop()
            self.spans[sid] = (name, start, end, parent)

    def _wrap(self, name: str, fn):
        spans, open_ = self.spans, self._open
        flops = self.flops if name in FLOP_FACTOR else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if flops is not None:
                flops[name] += _flops(name, args, kwargs)
            sid = len(spans)
            spans.append(None)
            parent = open_[-1]
            open_.append(sid)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                open_.pop()
                spans[sid] = (name, start, end, parent)

        return traced

    def install(self) -> None:
        for module_name in TRACED:
            importlib.import_module(f"dcnpd.{module_name}")
        namespaces = [
            module
            for key, module in sorted(sys.modules.items())
            if key == "dcnpd" or key.startswith("dcnpd.")
        ]
        for module_name, fns in TRACED.items():
            home = sys.modules[f"dcnpd.{module_name}"]
            for fn_name in fns:
                original = getattr(home, fn_name)
                wrapper = self._wrap(f"{module_name}.{fn_name}", original)
                for namespace in namespaces:
                    for attr, value in list(vars(namespace).items()):
                        if value is original:
                            setattr(namespace, attr, wrapper)
                            self._rebound.append((namespace, attr, original))

    def uninstall(self) -> None:
        for namespace, attr, original in reversed(self._rebound):
            setattr(namespace, attr, original)
        self._rebound.clear()

    def self_times(self) -> tuple[dict[str, list], list[str]]:
        """Per name ``[calls, self_seconds]``, and any span-nesting violations.

        Self time is a span's duration minus the durations of its direct
        children. Each child must lie inside its parent's interval, and the
        children together must fit within the parent's duration.
        """
        children = defaultdict(float)
        problems = []
        for sid, (name, start, end, parent) in enumerate(self.spans):
            if parent is None:
                continue
            children[parent] += end - start
            _, p_start, p_end, _ = self.spans[parent]
            if start < p_start or end > p_end:
                problems.append(f"span {sid} ({name}) leaves its parent {parent}")
        stats: dict[str, list] = defaultdict(lambda: [0, 0.0])
        for sid, (name, start, end, _) in enumerate(self.spans):
            if children[sid] > end - start:
                problems.append(f"children of span {sid} ({name}) outlast it")
            entry = stats[name]
            entry[0] += 1
            entry[1] += (end - start) - children[sid]
        return dict(stats), problems

    def layer_metrics(self) -> tuple[dict, list[str]]:
        """Per traced function: calls, self seconds and, for the dense passes, flops."""
        stats, problems = self.self_times()
        metrics = {}
        for name in TRACED_NAMES:
            calls, self_s = stats.get(name, (0, 0.0))
            metrics[f"{name}.calls"] = {"value": calls, "unit": "count"}
            metrics[f"{name}.self_s"] = {"value": self_s, "unit": "s"}
        for name in FLOP_FACTOR:
            metrics[f"{name}.flops"] = {"value": self.flops[name], "unit": "flop"}
        return metrics, problems

    def write_spans(self, path) -> None:
        names = sorted({span[0] for span in self.spans})
        index = {name: i for i, name in enumerate(names)}
        payload = {
            "names": names,
            "fields": ["name_index", "start_s", "end_s", "parent_id"],
            "spans": [
                [index[name], start, end, parent] for name, start, end, parent in self.spans
            ],
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, separators=(",", ":"))
