"""Benchmark of the csi_tcn pipeline.

    python3 perfbench/run.py --workload desk_kfold --seed 1 --seconds 20 --trace 0

Run from a checkout of the repository: the program is imported from the
checkout's `src/`, never from an installed copy. Human-readable lines (the
environment stamp, the workload's named figures, failed checks) come first;
the last line of standard output is one JSON object with `correct`,
`attempted`, `failed` and `metrics`. `--trace 0` reports the end-to-end
metrics, `--trace 1` the per-layer metrics of a traced run. The full result
and, for traced runs, the spans go to `.perfbench-out/` in the checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench-out")
SETUP_REPEATS = 3

E2E_UNITS = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB"}


def _import_program():
    """Import csi_tcn from this checkout; exit 2 if the checkout lacks it."""
    if not os.path.isfile(os.path.join(SRC, "csi_tcn", "__init__.py")):
        print(f"perfbench: no csi_tcn sources under {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, SRC)
    import csi_tcn

    if os.path.dirname(os.path.dirname(os.path.abspath(csi_tcn.__file__))) != SRC:
        print(f"perfbench: csi_tcn imported from {csi_tcn.__file__}, not {SRC}", file=sys.stderr)
        sys.exit(2)


def _git_commit() -> str | None:
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.isfile(ref_path):
            with open(ref_path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def source_digest() -> str:
    """sha256 over the program's sources: identifies the code when the
    checkout carries no git metadata."""
    h = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(SRC):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(filenames):
            if name.endswith(".py"):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, SRC).encode())
                with open(path, "rb") as fh:
                    h.update(fh.read())
    return h.hexdigest()


def _blas() -> dict:
    """BLAS vendor and the thread count its pool will use, read through
    ctypes from the library numpy loaded."""
    import ctypes
    import glob

    import numpy as np

    info: dict = {"vendor": "unknown", "version": None, "threads": None}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["vendor"], info["version"] = blas.get("name", "unknown"), blas.get("version")
    except (KeyError, TypeError, AttributeError):
        pass
    libdir = os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs")
    for lib in sorted(glob.glob(os.path.join(libdir, "*openblas*"))):
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                info["threads"] = fn()
                break
    return info


def environment() -> dict:
    import numpy
    import scipy

    try:
        import threadpoolctl  # noqa: F401  (recorded, never required)

        tpc = True
    except ImportError:
        tpc = False
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": _blas(),
        "nproc": len(os.sched_getaffinity(0)),
        "threadpoolctl_importable": tpc,
        "commit": _git_commit(),
        "source_sha256": source_digest(),
    }


def _peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux. Children count once a pool has joined
    # them; their peak is the largest single child, not their sum.
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def _unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_mb"):
        return "MB"
    if name.endswith("_share"):
        return "ratio"
    if "bytes" in name:
        return "B"
    return "count"


def _median_metrics(rows: list[dict]) -> dict:
    return {k: statistics.median(r[k] for r in rows) for k in rows[0]}


def _check_counts(workload, rows: list[dict], workload_name: str, key: str) -> dict:
    """Exact counters must agree between traced iterations and with earlier
    traced runs of the same sources, workload and size (`key`)."""
    from tracer import EXACT_COUNTERS

    first = {k: rows[0][k] for k in EXACT_COUNTERS}
    for r in rows[1:]:
        diff = sorted(k for k in EXACT_COUNTERS if r[k] != first[k])
        workload.expect(not diff, f"exact counts changed between iterations: {diff}")
    path = os.path.join(OUT, f"counts-{workload_name}-{key[:16]}.json")
    if os.path.isfile(path):
        with open(path, encoding="utf-8") as fh:
            earlier = json.load(fh)
        diff = sorted(k for k in EXACT_COUNTERS if earlier.get(k) != first[k])
        workload.expect(not diff, f"exact counts differ from an earlier run: {diff}")
    else:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(first, fh, sort_keys=True, indent=1)
    return first


def run(workload_name: str, seed: int, seconds: float, trace: bool, size=None) -> dict:
    """Set up, measure and check one workload; returns the full result."""
    import workloads
    from tracer import Tracer, span_cost

    env = environment()
    os.makedirs(OUT, exist_ok=True)
    workdir = os.path.join(OUT, f"work-{workload_name}-{os.getpid()}")
    cls = workloads.WORKLOADS[workload_name]
    wl = cls(seed, workdir) if size is None else cls(seed, workdir, size)
    tracer = Tracer() if trace else None
    setups, walls, traced_rows, missing = [], [], [], []
    untraced_stages: dict = {}
    traced_stages: dict = {}
    try:
        for _ in range(SETUP_REPEATS):
            started = time.perf_counter()
            wl.setup()
            setups.append(time.perf_counter() - started)
        checks = 0
        if trace:
            # A discarded first iteration, so that the untraced and traced
            # iterations compared for the overhead are both warm.
            wl.stage_seconds = {}
            wl.reset()
            wl.iterate()
            wl.check(first=True)
            checks += 1
        began = time.perf_counter()
        i = 0
        # Closed loop, one client: the next iteration starts when the last
        # one is checked. Traced runs alternate untraced and traced ones.
        while True:
            traced = trace and i % 2 == 1
            wl.stage_seconds = traced_stages if traced else untraced_stages
            wl.reset()
            if traced:
                missing = tracer.install()
                root = tracer.begin_iteration()
            started = time.perf_counter()
            try:
                wl.iterate()
            finally:
                wall = time.perf_counter() - started
                if traced:
                    tracer.close(root)
                    tracer.uninstall()
            if traced:
                traced_rows.append(tracer.layer_metrics(root))
            else:
                walls.append(wall)
            try:
                wl.check(first=checks == 0)
            except Exception as exc:  # unreadable output fails the check, not the benchmark
                wl.expect(False, f"output unreadable: {type(exc).__name__}: {exc}")
                break
            checks += 1
            i += 1
            if time.perf_counter() - began >= seconds and (not trace or traced_rows):
                break
    except workloads.OperationFailed:
        pass
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    wall_median = statistics.median(walls) if walls else float("nan")
    layers = None
    if traced_rows:
        layers = _median_metrics(traced_rows)
        key = hashlib.sha256((env["source_sha256"] + repr(wl.size)).encode()).hexdigest()
        layers.update(_check_counts(wl, traced_rows, workload_name, key))
        layers["trace.untraced_wall_s"] = wall_median
        layers["trace.overhead_share"] = layers["trace.wall_s"] / wall_median - 1.0
        layers["trace.iterations"] = len(traced_rows)
        layers["trace.wrapper_s"] = layers["trace.spans"] * span_cost()
        tracer.write_spans(os.path.join(OUT, f"spans-{workload_name}-seed{seed}.jsonl"))
    wl.stage_seconds = untraced_stages
    named = wl.report(wall_median) if walls else {}
    named["error_rate"] = (wl.failed / wl.attempted if wl.attempted else 1.0, "ratio")
    return {
        "workload": workload_name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "environment": env,
        "iterations": len(walls),
        "setup_seconds": setups,
        "wall_seconds": walls,
        "stage_seconds": untraced_stages,
        "errors": wl.errors,
        "attempted": wl.attempted,
        "failed": wl.failed,
        "end_to_end": {
            "setup_s": statistics.median(setups) if setups else float("nan"),
            "wall_s": wall_median,
            "peak_rss_mb": _peak_rss_mb(),
        },
        "named": {k: {"value": v, "unit": u} for k, (v, u) in named.items()},
        "per_layer": layers,
        "absent": {name: "not defined in this version of csi_tcn" for name in missing},
    }


def _finite(x: float) -> float:
    return x if isinstance(x, (int, float)) and math.isfinite(x) else 0.0


def result_line(result: dict, trace: int) -> dict:
    """The last line of output: end-to-end metrics, or per-layer ones."""
    if trace:
        values = sorted((result["per_layer"] or {}).items())
        metrics = {k: {"value": _finite(v), "unit": _unit(k)} for k, v in values}
    else:
        metrics = {k: {"value": _finite(v), "unit": E2E_UNITS[k]} for k, v in result["end_to_end"].items()}
    ok = result["failed"] == 0 and result["attempted"] > 0 and result["iterations"] > 0
    return {
        "correct": ok,
        "attempted": max(1, result["attempted"]),
        "failed": result["failed"],
        "metrics": metrics,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("desk_kfold", "stock_train", "ingest"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    _import_program()
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    os.makedirs(OUT, exist_ok=True)
    with open(
        os.path.join(OUT, f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"), "w",
        encoding="utf-8",
    ) as fh:
        json.dump(result, fh, indent=1, sort_keys=True, default=float)

    print("env " + json.dumps(result["environment"], sort_keys=True))
    for name, m in result["named"].items():
        print(f"figure {name} {m['value']:.6g} {m['unit']}")
    for name, why in result["absent"].items():
        print(f"absent {name}: {why}")
    for err in result["errors"]:
        print(f"failed {err}")

    print(json.dumps(result_line(result, args.trace)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
