"""One workload in one fresh process: set up, run passes, report.

Started by ``run.py`` with ``src`` and this directory on the import path and
BLAS on one thread.  Prints one
JSON object (raw timings, outputs, stamp and, when traced, the per-layer
table) as its last line of standard output.  Exit codes: 0 reported (a
failed phase is inside the report), 3 the simulator cannot be imported.
"""

from __future__ import annotations

import argparse
import ctypes
import dataclasses
import gzip
import json
import os
import platform
import resource
import sys
import time
import traceback


def blas_info() -> dict:
    """OpenBLAS version from numpy's build record, and the thread count the
    loaded library reports (None when it cannot be asked)."""
    import numpy as np

    version = None
    try:
        version = np.show_config(mode="dicts")["Build Dependencies"]["blas"].get("version")
    except (KeyError, TypeError):
        pass
    threads = None
    try:
        with open("/proc/self/maps") as fh:
            paths = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        paths = set()
    for path in sorted(paths):
        lib = ctypes.CDLL(path)
        for symbol in (
            "scipy_openblas_get_num_threads64_",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                threads = int(fn())
                break
        if threads is not None:
            break
    return {"openblas": version, "blas_threads": threads}


def stamp(cfg, workload) -> dict:
    import numpy as np
    from partialfed.config import config_to_dict

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        **blas_info(),
        "machine": platform.machine(),
        "workload": workload.name,
        "seed": cfg.seed,
        "config": config_to_dict(cfg),
        "centralized_clients": workload.centralized_clients,
        "error_metric": workload.error_metric,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--max-passes", type=int, default=0, help="0: as many as fit")
    ap.add_argument("--spans-out", default=None, help="trace, and write spans here")
    args = ap.parse_args(argv)

    try:
        import instrument
        import workloads
    except ImportError as e:
        print(f"cannot import the simulator: {e}", file=sys.stderr)
        return 3
    from probe import SpeedProbe
    from tracer import Tracer

    tracer = None
    if args.spans_out:
        tracer = Tracer()
        instrument.install(tracer)

    workload = workloads.WORKLOADS[args.workload]
    cfg = workloads.make_config(workload, args.seed)
    report: dict = {"stamp": stamp(cfg, workload), "passes": []}
    probe = SpeedProbe()
    try:
        bundle, setup_times, setup_probes = workloads.timed_setup(cfg, probe, tracer)
    except Exception:  # reported as a failed setup operation
        report["setup"] = {"error": traceback.format_exc()}
        if tracer is not None:
            tracer.restore()
        print(json.dumps(report))
        return 0
    report["setup"] = {
        "seconds": setup_times,
        "probe_s": setup_probes,
        "train_clients": len(bundle.train_clients),
        "test_sizes": [ds.n for ds in bundle.test_clients],
        "regime": bundle.regime,
    }
    if tracer is not None:
        bundle = dataclasses.replace(bundle, spec=instrument.traced_spec(tracer, bundle.spec))

    start = workloads.initial_globals(cfg, bundle.spec)
    budget_start = time.perf_counter()
    while True:
        out: dict = {}
        report["passes"].append(out)
        try:
            workloads.run_pass(workload, cfg, bundle, start, out, probe, tracer)
        except Exception:  # recorded against the phase that raised
            out["error"] = traceback.format_exc()
            break
        print(
            f"[{workload.name}] pass {len(report['passes'])}: {out['seconds']:.2f} s",
            file=sys.stderr,
        )
        if args.max_passes and len(report["passes"]) >= args.max_passes:
            break
        if time.perf_counter() - budget_start + out["seconds"] > args.seconds:
            break

    if tracer is not None:
        tracer.restore()
        report["leftover_wrappers"] = instrument.leftover_wrappers()
        first = report["passes"][0]
        comm = first.get("train", {}).get("comm_params_total", 0)
        report["layers"] = tracer.layer_table()
        report["layer_metrics"] = instrument.layer_metrics(tracer, report["layers"], comm)
        report["spans"] = len(tracer)
        with gzip.open(args.spans_out, "wt") as fh:
            json.dump(tracer.columns(), fh)
    report["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
