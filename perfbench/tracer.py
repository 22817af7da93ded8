"""Outside-in tracer for the csi_tcn pipeline.

`Tracer` replaces public functions of the csi_tcn modules with timing
wrappers, both where they are defined and wherever another module binds the
same function object by name (`cli.preprocess`, `train.model_forward`,
`dsp.amplitude`, ...). Tensor ops also get their backward closure wrapped on
every tensor they return, so per-op backward time is measured without
touching the program. `uninstall` puts every original attribute back.

Spans (name, start, end, parent, item) stay in memory; `layer_metrics` turns
the spans of one traced iteration into self times and counts, and
`write_spans` dumps them as JSON lines at exit. The item id names the
recording, fold and step a span worked for.
"""

from __future__ import annotations

import functools
import json
import math
import os
import sys
import time
from collections import Counter

# Function name in csi_tcn.tensor -> the `Tensor.op` name the model records.
TENSOR_OPS = {
    "causal_conv1d": "causal_conv1d",
    "linear": "linear",
    "matmul": "matmul",
    "softmax_rows": "softmax_rows",
    "lower_triangular_mask": "lower_triangular_mask",
    "mul": "mul",
    "add": "add",
    "relu": "relu",
    "dropout_layer": "dropout",
    "transpose": "transpose",
    "reshape": "reshape",
    "index": "index",
    "mean_over_axis": "mean",
    "cross_entropy_mean": "cross_entropy_mean",
}

# (module, public function, span name). A span's self time is reported as
# the metric `<span name>_s`; several functions may share one span name.
WRAPPED = [
    ("cli", "main", "cli.main"),
    ("cli", "cmd_synth", "cli.synth"),
    ("cli", "cmd_preprocess", "cli.preprocess"),
    ("cli", "cmd_augment", "cli.augment"),
    ("cli", "cmd_train", "cli.train"),
    ("csi_data", "generate_synthetic", "csi_data.synthesize"),
    ("csi_data", "synthesize_recording", "csi_data.synthesize"),
    ("csi_data", "save_recording", "csi_data.save_recording"),
    ("csi_data", "load_recording", "csi_data.load_recording"),
    ("csi_data", "gate_and_trim", "csi_data.gate_and_trim"),
    ("csi_data", "amplitude", "csi_data.amplitude"),
    ("csi_data", "save_manifest", "csi_data.manifest"),
    ("csi_data", "load_manifest", "csi_data.manifest"),
    ("dsp", "preprocess", "dsp.preprocess"),
    ("dsp", "minmax_normalize", "dsp.minmax_normalize"),
    ("dsp", "design_butterworth_lowpass", "dsp.design"),
    ("dsp", "apply_filter", "dsp.apply_filter"),
    ("dsp", "dwt_approx", "dsp.dwt_approx"),
    ("dsp", "save_sample", "dsp.save_sample"),
    ("dsp", "load_sample", "dsp.load_sample"),
    ("augment", "expand_dataset", "augment.expand_dataset"),
    ("augment", "expand_recordings", "augment.expand_recordings"),
    ("augment", "dropout_augment", "augment.dropout"),
    ("augment", "mix_other", "augment.mix_other"),
    ("augment", "mix_same", "augment.mix_same"),
    ("model", "model_forward", "model.forward"),
    ("model", "attention_forward", "model.attention"),
    ("model", "tcn_block_forward", "model.tcn_block"),
    ("model", "init_model", "model.init"),
    ("model", "save_checkpoint", "model.checkpoint_save"),
    ("model", "load_checkpoint", "model.checkpoint_load"),
    ("train", "train", "train.fit"),
    ("train", "kfold_evaluate", "train.kfold"),
    ("train", "evaluate", "train.eval"),
    ("train", "adamw_step", "train.adamw"),
    ("tensor", "backward", "tensor.backward"),
] + [("tensor", fn, f"tensor.{op}.fwd") for fn, op in TENSOR_OPS.items()]

# Self-time metrics every traced run reports (0.0 when a workload bypasses
# the layer). model.forward splits by mode; tensor ops add a backward span.
SELF_TIME_SPANS = sorted(
    {name for _, _, name in WRAPPED if name != "model.forward"}
    | {"model.forward_train", "model.forward_eval"}
    | {f"tensor.{op}.bwd" for op in TENSOR_OPS.values()}
)
SELF_TIME_METRICS = [f"{name}_s" for name in SELF_TIME_SPANS]

COUNTERS = [
    "csi_data.synthesize_calls",
    "csi_data.bytes_written",
    "csi_data.bytes_read",
    "dsp.design_calls",
    "dsp.samples",
    "dsp.bytes_written",
    "dsp.bytes_read",
    "augment.donor_scans",
    "augment.samples_out",
    "model.checkpoint_bytes",
    "train.folds",
    "train.steps",
    "tensor.graph_nodes",
] + [f"tensor.{op}.calls" for op in TENSOR_OPS.values()] + [
    f"tensor.{op}.out_bytes" for op in TENSOR_OPS.values()
]

# Counters that must repeat exactly between iterations and between runs,
# under the names the traced run reports them by.
EXACT_COUNTERS = [
    "csi_data.bytes_written",
    "csi_data.bytes_read",
    "dsp.design_calls",
    "dsp.bytes_written",
    "dsp.bytes_read",
    "augment.donor_scans",
    "tensor.graph_nodes",
] + [f"tensor.{op}.{kind}" for op in TENSOR_OPS.values() for kind in ("calls", "out_mb")]

PACKAGE = "csi_tcn"
ROOT_SPAN = "bench.iteration"


class Tracer:
    """Timing wrappers on csi_tcn: `install` before a traced iteration,
    `uninstall` after it."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index, item]
        self.counts: Counter = Counter()
        self.step_seconds: list[float] = []
        self.cpu_busy: list[tuple[float, float]] = []  # (wall, cpu) of top-level fits
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []
        self._item = {"fold": None, "step": None, "rec": None}
        self._item_str = ""
        self._steps_started = 0
        self._step_start = None
        self._train_depth = 0
        self._train_enter = None

    # -- installation -------------------------------------------------------

    def _modules(self):
        return {
            name.split(".", 1)[1]: mod
            for name, mod in sys.modules.items()
            if name.startswith(PACKAGE + ".") and mod is not None
        }

    def install(self) -> list[str]:
        """Wrap every function in WRAPPED that exists; returns the names of
        those missing from this version of the program."""
        modules = self._modules()
        missing = []
        for mod_name, fn_name, span in WRAPPED:
            mod = modules.get(mod_name)
            original = getattr(mod, fn_name, None) if mod is not None else None
            if original is None:
                missing.append(f"{mod_name}.{fn_name}")
                continue
            wrapper = self._wrap(original, span, fn_name)
            for other in modules.values():
                for attr, value in list(vars(other).items()):
                    if value is original:
                        self._saved.append((other, attr, original))
                        setattr(other, attr, wrapper)
        return missing

    def uninstall(self) -> None:
        while self._saved:
            mod, attr, original = self._saved.pop()
            setattr(mod, attr, original)

    # -- spans --------------------------------------------------------------

    def _set_item(self, level: str, value) -> None:
        self._item[level] = value
        self._item_str = "/".join(f"{k}:{v}" for k, v in self._item.items() if v is not None)

    def open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent, self._item_str])
        self._stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    def begin_iteration(self) -> int:
        """Open the root span of one traced iteration and reset per-item state."""
        for level in self._item:
            self._set_item(level, None)
        self._steps_started = 0
        self._step_start = None
        self._train_depth = 0
        self.counts.clear()
        self.step_seconds.clear()
        self.cpu_busy.clear()
        return self.open(ROOT_SPAN)

    # -- wrappers -----------------------------------------------------------

    def _wrap(self, fn, span: str, fn_name: str):
        before, after = self._hooks(span, fn_name)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            name = before(args, kwargs) if before else span
            idx = tracer.open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer.close(idx)
            if after:
                after(args, kwargs, out)
            return out

        wrapper.__perfbench_wrapper__ = True
        return wrapper

    def _hooks(self, span: str, fn_name: str):
        """(before, after) callbacks that keep counts and item ids. `before`
        may rename the span; both run outside the span they belong to."""
        c = self.counts
        if span.startswith("tensor.") and span.endswith(".fwd"):
            return None, self._tensor_after(span.split(".")[1])
        if fn_name == "synthesize_recording":

            def before(args, kwargs):
                c["csi_data.synthesize_calls"] += 1
                self._set_item("rec", f"c{args[1]}t{args[2]}")
                return span

            return before, None
        if fn_name in ("save_recording", "save_manifest", "save_sample", "save_checkpoint"):
            key = {
                "save_recording": "csi_data.bytes_written",
                "save_manifest": "csi_data.bytes_written",
                "save_sample": "dsp.bytes_written",
                "save_checkpoint": "model.checkpoint_bytes",
            }[fn_name]
            pos = 0 if fn_name == "save_checkpoint" else 1

            def after(args, kwargs, out):
                c[key] += os.path.getsize(args[pos])

            return None, after
        if fn_name in ("load_recording", "load_manifest", "load_sample"):
            key = "dsp.bytes_read" if fn_name == "load_sample" else "csi_data.bytes_read"

            def before(args, kwargs):
                if fn_name != "load_manifest":
                    self._set_item("rec", os.path.basename(str(args[0])))
                c[key] += os.path.getsize(args[0])
                return span

            return before, None
        if fn_name == "design_butterworth_lowpass":
            return (lambda args, kwargs: c.update(["dsp.design_calls"]) or span), None
        if fn_name == "preprocess":
            return (lambda args, kwargs: c.update(["dsp.samples"]) or span), None
        if fn_name in ("mix_other", "mix_same"):
            return (lambda args, kwargs: c.update({"augment.donor_scans": len(args[0])}) or span), None
        if fn_name in ("expand_dataset", "expand_recordings"):

            def after(args, kwargs, out):
                c["augment.samples_out"] += len(out)
                if fn_name == "expand_recordings":
                    # The raw expander builds its donor lists inline: one full
                    # scan of the inputs per mixed output (computed, not timed).
                    n = len(args[0])
                    cfg = args[1]
                    mixing = sum(1 for m in cfg.methods if m.value != "dropout")
                    c["augment.donor_scans"] += mixing * cfg.copies_per_method * n * n

            return None, after
        if fn_name == "model_forward":

            def before(args, kwargs):
                training = kwargs.get("training", args[3] if len(args) > 3 else False)
                if training:
                    self._steps_started += 1
                    self._set_item("step", self._steps_started)
                    self._step_start = time.perf_counter()
                    return "model.forward_train"
                return "model.forward_eval"

            return before, None
        if fn_name == "adamw_step":

            def after(args, kwargs, out):
                c["train.steps"] += 1
                if self._step_start is not None:
                    self.step_seconds.append(time.perf_counter() - self._step_start)
                    self._step_start = None

            return None, after
        if fn_name in ("train", "kfold_evaluate"):
            return self._fit_hooks(fn_name)
        return None, None

    def _fit_hooks(self, fn_name: str):
        c = self.counts

        def before(args, kwargs):
            if fn_name == "train":
                c["train.folds"] += 1
                self._set_item("rec", None)
                self._set_item("step", None)
                self._set_item("fold", c["train.folds"])
            if self._train_depth == 0:
                self._train_enter = (time.perf_counter(), _cpu_seconds())
            self._train_depth += 1
            return "train.fit" if fn_name == "train" else "train.kfold"

        def after(args, kwargs, out):
            self._train_depth -= 1
            if self._train_depth == 0:
                wall0, cpu0 = self._train_enter
                self.cpu_busy.append((time.perf_counter() - wall0, _cpu_seconds() - cpu0))

        return before, after

    def _tensor_after(self, op: str):
        c = self.counts
        calls, out_bytes, bwd = f"tensor.{op}.calls", f"tensor.{op}.out_bytes", f"tensor.{op}.bwd"
        tracer = self

        def after(args, kwargs, out):
            c[calls] += 1
            if any(out is a for a in args):
                return  # eval-mode dropout hands back its input unchanged
            c[out_bytes] += out.data.nbytes
            inner = out._backward
            if inner is None:
                return
            c["tensor.graph_nodes"] += 1

            def timed_backward(g):
                idx = tracer.open(bwd)
                try:
                    inner(g)
                finally:
                    tracer.close(idx)

            out._backward = timed_backward

        return after

    # -- results ------------------------------------------------------------

    def layer_metrics(self, root: int) -> dict[str, float]:
        """Self time per span name and the counters of the iteration whose
        root span index is `root`."""
        spans = self.spans[root:]
        child_time = [0.0] * len(spans)
        for s in spans[1:]:
            child_time[s[3] - root] += s[2] - s[1]
        self_time = dict.fromkeys(SELF_TIME_SPANS, 0.0)
        incl = {"model.attention": 0.0, "model.tcn_block": 0.0}
        for i, (name, start, end, _, _) in enumerate(spans):
            if name == ROOT_SPAN:
                continue
            self_time[name] = self_time.get(name, 0.0) + (end - start) - child_time[i]
            if name in incl:
                incl[name] += end - start
        wall = spans[0][2] - spans[0][1]
        out = {f"{name}_s": v for name, v in self_time.items()}
        out["model.attention_incl_s"] = incl["model.attention"]
        out["model.tcn_block_incl_s"] = incl["model.tcn_block"]
        out["trace.wall_s"] = wall
        out["trace.unattributed_s"] = wall - child_time[0]
        out["trace.spans"] = len(spans) - 1
        for name in COUNTERS:
            out[name] = self.counts.get(name, 0)
        for op in TENSOR_OPS.values():
            out[f"tensor.{op}.out_mb"] = out.pop(f"tensor.{op}.out_bytes") / 2**20
        out["train.step_p50_s"], out["train.step_tail_s"] = _step_stats(self.step_seconds)
        wall_cpu = [(w, cpu) for w, cpu in self.cpu_busy if w > 0]
        out["train.cpu_busy_share"] = (
            sum(cpu for _, cpu in wall_cpu) / (sum(w for w, _ in wall_cpu) * len(os.sched_getaffinity(0)))
            if wall_cpu
            else 0.0
        )
        return out

    def write_spans(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, item in self.spans:
                fh.write(
                    json.dumps({"name": name, "start": start, "end": end, "parent": parent, "item": item})
                    + "\n"
                )


def _cpu_seconds() -> float:
    t = os.times()
    return t.user + t.system + t.children_user + t.children_system


def _step_stats(samples: list[float]) -> tuple[float, float]:
    """(median, tail): the tail is the highest of p90/p99/p99.9 with at least
    ten samples beyond it, else the maximum."""
    if not samples:
        return 0.0, 0.0
    xs = sorted(samples)
    n = len(xs)
    median = xs[n // 2] if n % 2 else 0.5 * (xs[n // 2 - 1] + xs[n // 2])
    tail = xs[-1]
    for q in (0.9, 0.99, 0.999):
        if n * (1.0 - q) >= 10:
            tail = xs[min(n - 1, math.ceil(q * n) - 1)]
    return median, tail


def span_cost(calls: int = 20000) -> float:
    """Seconds a wrapper adds to one call, measured on a no-op function."""

    def noop(x):
        return x

    wrapped = Tracer()._wrap(noop, "calibration", "noop")
    started = time.perf_counter()
    for i in range(calls):
        noop(i)
    bare = time.perf_counter() - started
    started = time.perf_counter()
    for i in range(calls):
        wrapped(i)
    return max(0.0, (time.perf_counter() - started - bare) / calls)


def leftover_wrappers() -> list[str]:
    """Attributes of the package's modules that still hold a tracer wrapper."""
    found = []
    for name, mod in list(sys.modules.items()):
        if not name.startswith(PACKAGE) or mod is None:
            continue
        for attr, value in vars(mod).items():
            if getattr(value, "__perfbench_wrapper__", False):
                found.append(f"{name}.{attr}")
    return found
