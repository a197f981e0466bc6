"""The partialfed benchmark: one command for every workload.

    python3 bench/run.py --workload mf_fedrecon --seed 17 --seconds 35 --trace 0
    python3 bench/run.py --workload all

Each workload runs in its own fresh worker process (``worker.py``) that
calls the simulator's public layer functions directly.  ``--trace 0``
measures the end-to-end metrics with nothing wrapped; ``--trace 1`` runs one
untraced pass and one traced pass, each in a fresh process, and reports the
per-layer metrics and the tracing overhead.  Every run checks the outputs
(see ``checks.py``), stamps the machine and code version, writes its full
result under ``bench/out/`` and prints, as its last line, one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.

Exit codes: 0 measured (``correct`` tells whether the checks passed),
2 the simulator sources are missing or no pass completed.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import stats  # noqa: E402
from probe import PROBE_REF_S  # noqa: E402

WORKLOADS = ("mf_fedrecon", "mf_baselines", "nwp_fedrecon")
DEFAULT_SEED = 17
# Relative tolerance of the default-seed reference check: room for changes in
# floating-point summation order, never for a different result.
RTOL = 1e-6
WORKER_TIMEOUT_S = 170
PHASES = ("train", "eval", "centralized")
SCALED = (
    "setup_s", "train_clients_per_s", "round_ms_p50", "eval_clients_per_s",
    "centralized_examples_per_s", "total_s",
)
NOT_QUEUED = (
    "No queue or wait times: the simulator is a single-threaded synchronous "
    "loop, so every span is busy time."
)


class BenchError(RuntimeError):
    pass


def git_rev() -> str:
    try:
        res = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
            capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    lines = res.stdout.split()
    if res.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return "unknown"
    return lines[1]


def worker_env() -> dict:
    # One BLAS thread: the simulator is a single-threaded loop of small
    # array ops, and a second OpenBLAS thread only spins (on 2 CPUs it
    # doubled user time with no wall-time gain).  The stamp records it.
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(HERE)])
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def run_worker(workload: str, seed: int, seconds: float, *, max_passes=0, spans_out=None):
    cmd = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
        "--max-passes", str(max_passes),
    ]
    if spans_out:
        cmd += ["--spans-out", str(spans_out)]
    try:
        res = subprocess.run(
            cmd, cwd=ROOT, env=worker_env(), stdout=subprocess.PIPE, text=True,
            timeout=WORKER_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired as e:
        raise BenchError(f"{workload}: worker exceeded {WORKER_TIMEOUT_S} s") from e
    lines = res.stdout.strip().splitlines()
    if res.returncode != 0 or not lines:
        raise BenchError(f"{workload}: worker exited with code {res.returncode}")
    return json.loads(lines[-1])


def complete_passes(report: dict) -> list[dict]:
    return [p for p in report["passes"] if "error" not in p]


def measure(report: dict, passes: list[dict], factor) -> dict:
    """The end-to-end metrics with every phase's wall time divided by
    ``factor(probes)`` of the probes taken around it."""

    def seconds(p: dict, phase: str) -> float:
        return p[phase]["seconds"] / factor(p[phase]["probe_s"])

    def rate(phase: str, count: str) -> float:
        # Work over wall time, summed over the passes of the run.
        return stats.per_second(
            sum(p[phase][count] for p in passes), sum(seconds(p, phase) for p in passes)
        )

    setup = report["setup"]
    setup_s = statistics.median(setup["seconds"]) / factor(setup["probe_s"])
    return {
        "setup_s": setup_s,
        "train_clients_per_s": rate("train", "client_rounds"),
        "round_ms_p50": statistics.median(
            [
                1e3 * s / factor(p["train"]["probe_s"])
                for p in passes
                for s in p["train"]["round_s"]
            ]
        ),
        "eval_clients_per_s": rate("eval", "clients"),
        "centralized_examples_per_s": rate("centralized", "examples"),
        "total_s": setup_s
        + statistics.median([sum(seconds(p, ph) for ph in PHASES) for p in passes]),
        "peak_rss_mb": report["peak_rss_mb"],
        "test_error": passes[0]["eval"]["test_error"],
    }


def end_to_end(report: dict) -> tuple[dict, dict]:
    """The end-to-end metrics of one worker report at the reference machine
    speed (see probe.py), plus the raw wall-time values and the sample
    counts behind them."""
    passes = complete_passes(report)
    if not passes:
        raise BenchError("no pass completed; nothing to measure")
    probes = report["setup"]["probe_s"] + [
        x for p in passes for ph in PHASES for x in p[ph]["probe_s"]
    ]
    rounds = sum(len(p["train"]["round_s"]) for p in passes)
    samples = {
        "raw": measure(report, passes, lambda probe_s: 1.0),
        "speed_factor": stats.speed_factor(probes, PROBE_REF_S),
        "probe_samples": len(probes),
        "setup_calls": len(report["setup"]["seconds"]),
        "passes": len(passes),
        "rounds": rounds,
        "round_tail_percentile": stats.reportable_percentile(rounds),
        "test_accuracy": passes[0]["eval"]["test_accuracy"],
        "error_metric": report["stamp"]["error_metric"],
    }
    adjusted = measure(report, passes, lambda probe_s: stats.speed_factor(probe_s, PROBE_REF_S))
    return adjusted, samples


REFERENCES = HERE / "references.json"
RECIPE_KEYS = ("config", "centralized_clients", "error_metric")


def recipe(report: dict) -> dict:
    return {k: report["stamp"][k] for k in RECIPE_KEYS}


def load_references(workload: str, seed: int) -> tuple[dict | None, str | None]:
    """References apply on their recorded seed only.  Returns the entry (with
    the tolerance) or a problem to report as a failed check."""
    refs = json.loads(REFERENCES.read_text())
    if seed != refs["seed"]:
        return None, None
    entry = refs["workloads"].get(workload)
    if entry is None:
        return None, f"no reference recorded for {workload}"
    return dict(entry, rtol=refs["rtol"]), None


def recipe_mismatch(report: dict, refs: dict) -> str | None:
    """A recipe that differs from the recorded one fails the check, so new
    references are recorded on purpose, never silently."""
    if recipe(report) != refs["recipe"]:
        return "references were recorded for a different recipe; re-record them explicitly"
    return None


def record_references() -> None:
    """Run one untraced pass of every workload on the default seed and write
    its final eval metrics and parameter digests as the references."""
    entries = {}
    for name in WORKLOADS:
        report = run_worker(name, DEFAULT_SEED, 0, max_passes=1)
        fails = checks.check_report(report, None)
        if fails:
            raise BenchError(f"{name}: checks failed, references not written: {fails}")
        first = report["passes"][0]
        entries[name] = {
            "recipe": recipe(report),
            "train_digest": first["train"]["digest"],
            "eval_metrics": first["eval"]["metrics"],
            "centralized_digest": first["centralized"]["digest"],
        }
    REFERENCES.write_text(
        json.dumps(
            {
                "seed": DEFAULT_SEED,
                "rtol": RTOL,
                "rtol_note": (
                    "relative tolerance for changes in floating-point summation order; "
                    "a change beyond it needs references recorded on purpose"
                ),
                "recorded_on": report["stamp"]["machine"] + ", numpy " + report["stamp"]["numpy"],
                "workloads": entries,
            },
            indent=1,
        )
        + "\n"
    )
    print(f"wrote {REFERENCES}")


def tally(fails_by_report: list[tuple[str, dict, dict]]) -> tuple[int, int, list[str]]:
    attempted = failed = 0
    messages = []
    for _, report, fails in fails_by_report:
        attempted += len(checks.attempted_ops(report))
        failed += len(fails)
        for msgs in fails.values():
            messages += msgs
    return attempted, failed, messages


def print_stamp(report: dict, rev: str) -> None:
    s = report["stamp"]
    print(
        f"  stamp: nproc={s['nproc']} python={s['python']} numpy={s['numpy']} "
        f"openblas={s['openblas']} blas_threads={s['blas_threads']} git={rev} seed={s['seed']}"
    )


def print_e2e(metrics: dict, samples: dict) -> None:
    pct = samples["round_tail_percentile"]
    notes = {
        "setup_s": f"median of {samples['setup_calls']} prepare_task calls",
        "round_ms_p50": (
            f"median of {samples['rounds']} rounds; highest percentile with >=10 "
            f"samples beyond: {'p%g' % pct if pct else 'none'}"
        ),
        "train_clients_per_s": f"over {samples['passes']} passes",
        "test_error": f"test_{samples['error_metric']}",
    }
    print(
        f"  machine speed: probe mean / reference = {samples['speed_factor']:.4f} over "
        f"{samples['probe_samples']} probes; each phase is scaled by the probes around "
        "it to the reference speed, raw wall-time values beside"
    )
    units = {m["name"]: m["unit"] for m in benchmark_spec()["end_to_end"]}
    for name, value in metrics.items():
        raw = f"raw {samples['raw'][name]:.6g}" if name in SCALED else ""
        print(
            f"  {name:<28} {value:>14.6g} {units[name]:<16} {raw:<16} {notes.get(name, '')}"
        )
    print(f"  {'test_accuracy':<28} {samples['test_accuracy']:>14.6g} share")


def layer_table_text(layers: dict, derived: dict, overhead: dict) -> str:
    rows = sorted(layers.items(), key=lambda kv: -kv[1]["total_ms"])
    lines = [f"  {'span':<36} {'calls':>9} {'total_ms':>11} {'self_ms':>11} {'us_per_call':>12}"]
    for name, r in rows:
        lines.append(
            f"  {name:<36} {r['calls']:>9d} {r['total_ms']:>11.2f} {r['self_ms']:>11.2f} "
            f"{r['us_per_call']:>12.2f}"
        )
    for name in (
        "models.calls_per_step",
        "client.reconstruct.steps",
        "client.reconstruct.loss_evals_per_step",
        "client.client_update.rows_touched_share",
        "evaluation.comm_params_total",
    ):
        lines.append(f"  {name:<36} {derived[name]}")
    lines.append(
        f"  tracing overhead: traced total_s {overhead['traced_total_s']:.3f} s - untraced "
        f"total_s {overhead['untraced_total_s']:.3f} s = {overhead['overhead_s']:+.3f} s, "
        f"ratio {overhead['ratio']:+.3f} of the untraced total_s"
    )
    lines.append("  " + NOT_QUEUED)
    return "\n".join(lines)


def benchmark_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def judge(reports: list[tuple[str, dict]], refs, ref_problem) -> list[tuple[str, dict, dict]]:
    judged = []
    for label, report in reports:
        fails = checks.check_report(report, refs, label)
        problem = ref_problem or (refs and recipe_mismatch(report, refs))
        if problem:
            fails.setdefault((None, "setup"), []).append(label + problem)
        judged.append((label, report, fails))
    return judged


def traced_metrics(base: dict, traced: dict, fails: dict, stem: Path) -> tuple[dict, dict]:
    """Per-layer metrics of the traced report; adds to ``fails`` when the
    traced pass reached other results than the untraced one or left a
    wrapper behind (both counted against the traced pass's last phase)."""
    base_m, _ = end_to_end(base)
    traced_m, _ = end_to_end(traced)
    p_base, p_traced = complete_passes(base)[0], complete_passes(traced)[0]
    for phase, key in (("train", "digest"), ("eval", "metrics"), ("centralized", "digest")):
        if p_base[phase][key] != p_traced[phase][key]:
            fails.setdefault((0, phase), []).append(
                f"traced: {phase} output differs from the untraced pass"
            )
    if traced["leftover_wrappers"]:
        fails.setdefault((0, "centralized"), []).append(
            f"traced: wrappers left after restore: {traced['leftover_wrappers']}"
        )
    overhead = {
        "untraced_total_s": base_m["total_s"],
        "traced_total_s": traced_m["total_s"],
        "overhead_s": traced_m["total_s"] - base_m["total_s"],
        "ratio": (traced_m["total_s"] - base_m["total_s"]) / base_m["total_s"],
        "base": "untraced total_s of a fresh one-pass run",
    }
    derived = traced["layer_metrics"]
    table = layer_table_text(traced["layers"], derived, overhead)
    print(table)
    stem.with_name(stem.name + "-layers.txt").write_text(table + "\n")
    metrics = {m["name"]: derived[m["name"]] for m in benchmark_spec()["per_layer"]}
    return metrics, {"overhead": overhead, "layers": traced["layers"], "spans": traced["spans"]}


def bench_one(workload: str, seed: int, seconds: float, trace: bool, rev: str) -> dict:
    """Run one workload; prints the human-readable report, writes the full
    result under bench/out/ and returns the result object."""
    OUT.mkdir(exist_ok=True)
    stem = OUT / f"{workload}-seed{seed}-trace{int(trace)}"
    refs, ref_problem = load_references(workload, seed)
    print(f"bench {workload} seed={seed} trace={int(trace)}")
    if not trace:
        reports = [("", run_worker(workload, seed, seconds))]
    else:
        reports = [
            ("untraced: ", run_worker(workload, seed, seconds, max_passes=1)),
            (
                "traced: ",
                run_worker(
                    workload, seed, seconds, max_passes=1, spans_out=f"{stem}-spans.json.gz"
                ),
            ),
        ]
    print_stamp(reports[0][1], rev)
    judged = judge(reports, refs, ref_problem)

    try:
        if not trace:
            metrics, samples = end_to_end(reports[0][1])
            print_e2e(metrics, samples)
            detail = {"samples": samples}
            units = {m["name"]: m["unit"] for m in benchmark_spec()["end_to_end"]}
        else:
            metrics, detail = traced_metrics(reports[0][1], reports[1][1], judged[1][2], stem)
            units = {m["name"]: m["unit"] for m in benchmark_spec()["per_layer"]}
    finally:
        attempted, failed, messages = tally(judged)
        for msg in messages:
            print("  CHECK FAILED: " + msg)
    print(f"  error_rate {failed}/{attempted} = {failed / attempted:.4g}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    full = {
        "result": result,
        "git": rev,
        "stamp": reports[0][1]["stamp"],
        "checks": messages,
        **detail,
        "reports": {label.strip(": ") or "untraced": r for label, r in reports},
    }
    stem.with_suffix(".json").write_text(json.dumps(full, indent=1))
    return result


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    ap.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=35.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument(
        "--record-references", action="store_true",
        help="rewrite references.json from the default seed",
    )
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "partialfed" / "__init__.py").is_file():
        print(f"simulator sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.record_references:
        try:
            record_references()
        except BenchError as e:
            print(f"benchmark failed: {e}", file=sys.stderr)
            return 2
        return 0
    rev = git_rev()
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    try:
        for name in names:
            results[name] = bench_one(name, args.seed, args.seconds, bool(args.trace), rev)
    except BenchError as e:
        print(f"benchmark failed: {e}", file=sys.stderr)
        return 2
    if len(results) == 1:
        print(json.dumps(results[names[0]]))
    else:
        print(
            json.dumps(
                {
                    "correct": all(r["correct"] for r in results.values()),
                    "attempted": sum(r["attempted"] for r in results.values()),
                    "failed": sum(r["failed"] for r in results.values()),
                    "metrics": {
                        f"{w}.{k}": v for w, r in results.items() for k, v in r["metrics"].items()
                    },
                }
            )
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
