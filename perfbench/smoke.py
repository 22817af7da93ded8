"""Tiny-size smoke test of the benchmark itself.

    python3 perfbench/smoke.py

Runs every workload at a toy size, untraced and traced, and checks that the
result names every metric of BENCHMARK.json and every named figure with its
unit, that all output checks pass, that traced self times add up to the
traced wall time, and that the tracer leaves no wrapper behind. Exits non-zero on the first failure.
Timings are not checked.
"""

from __future__ import annotations

import json
import os
import sys

import run

TINY = {
    "desk_kfold": lambda w: w.DeskSize(
        samples_per_class=4, classes=3, n_p=64, epochs=1, accuracy_floor=0.0,
        warmup_classes=3, warmup_trials=3,
    ),
    "stock_train": lambda w: w.StockSize(classes=3, train_trials=1, eval_trials=1, n_p=64, batch=2),
    "ingest": lambda w: w.IngestSize(classes=3, trials=3, n_p=72, target_np=64),
}

FIGURES = {
    "desk_kfold": {"time_to_accuracy_s": "s", "kfold_accuracy": "ratio"},
    "stock_train": {"train_samples_per_s": "1/s", "eval_samples_per_s": "1/s"},
    "ingest": {
        "ingest_recordings_per_s": "1/s",
        "augment_samples_per_s": "1/s",
        "augment_raw_recordings_per_s": "1/s",
    },
}


def _bindings() -> dict:
    return {
        (name, attr): value
        for name, mod in list(sys.modules.items())
        if name.startswith("csi_tcn") and mod is not None
        for attr, value in vars(mod).items()
        if callable(value)
    }


def _fail(message: str) -> None:
    print(f"smoke: FAIL {message}")
    sys.exit(1)


def main() -> int:
    run._import_program()
    import tracer
    import workloads

    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    if sorted(w["name"] for w in spec["workloads"]) != sorted(workloads.WORKLOADS):
        _fail("BENCHMARK.json workloads differ from workloads.WORKLOADS")
    before = _bindings()
    for name, size in TINY.items():
        for trace, listed in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            result = run.run(name, seed=0, seconds=0, trace=bool(trace), size=size(workloads))
            line = run.result_line(result, trace)
            if not line["correct"] or line["failed"]:
                _fail(f"{name} trace={trace}: checks failed: {result['errors']}")
            for m in listed:
                got = line["metrics"].get(m["name"])
                if got is None or got["unit"] != m["unit"]:
                    _fail(f"{name} trace={trace}: metric {m['name']} missing or not in {m['unit']}: {got}")
            figures = {k: f["unit"] for k, f in result["named"].items()}
            if figures != {**FIGURES[name], "error_rate": "ratio"}:
                _fail(f"{name} trace={trace}: named figures {figures}")
            extra = set(line["metrics"]) - {m["name"] for m in listed}
            if extra:
                _fail(f"{name} trace={trace}: metrics not listed in BENCHMARK.json: {sorted(extra)}")
            if trace:
                # seconds=0 gives exactly one traced iteration.
                layers = result["per_layer"]
                accounted = sum(layers[k] for k in tracer.SELF_TIME_METRICS) + layers["trace.unattributed_s"]
                if abs(accounted - layers["trace.wall_s"]) > 1e-6:
                    _fail(f"{name}: self times add up to {accounted}, not {layers['trace.wall_s']}")
            left = tracer.leftover_wrappers()
            after = _bindings()
            if left or after != before:
                changed = sorted(k for k in set(before) | set(after) if before.get(k) is not after.get(k))
                _fail(f"{name} trace={trace}: tracer left wrappers behind: {left or changed[:5]}")
        print(f"smoke: {name} ok")
    print("smoke: all workloads ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
