"""Correctness checks on a worker report.

On every seed: the communication ledger matches its formula exactly, every
reported number is finite, every evaluation set is non-empty, and every
pass of a run (traced or not) reaches bit-identical results.  On the
reference seed, the final evaluation metrics and parameter digests also
match the values recorded in ``references.json`` within its stated
relative tolerance.

A failure is attributed to one operation, ``(pass, phase)`` or
``(None, "setup")``; error_rate counts failed operations over attempted
ones.
"""

from __future__ import annotations

import math

Op = tuple  # (pass index or None, phase name)


def _finite(x) -> bool:
    if isinstance(x, dict):
        return all(_finite(v) for v in x.values())
    if isinstance(x, list):
        return all(_finite(v) for v in x)
    if isinstance(x, (int, float)):
        return math.isfinite(x)
    return True


def digest_mismatch(got: dict, ref: dict, rtol: float) -> str | None:
    """Compare two parameter digests: sizes exactly, norms relatively,
    projections relative to the reference L2 norm."""
    if got["size"] != ref["size"]:
        return f"size {got['size']} != {ref['size']}"
    for key in ("l1", "l2"):
        if abs(got[key] - ref[key]) > rtol * abs(ref[key]):
            return f"{key} {got[key]!r} vs {ref[key]!r}"
    for k, (a, b) in enumerate(zip(got["proj"], ref["proj"])):
        if abs(a - b) > rtol * ref["l2"]:
            return f"projection {k}: {a!r} vs {b!r}"
    return None


def metrics_mismatch(got: dict, ref: dict, rtol: float) -> str | None:
    for key, want in ref.items():
        have = got.get(key)
        if have is None:
            return f"metric {key} missing"
        if abs(have - want) > rtol * max(abs(want), 1e-12):
            return f"{key} {have!r} vs {want!r}"
    return None


def attempted_ops(report: dict) -> list[Op]:
    ops: list[Op] = [(None, "setup")]
    for k, p in enumerate(report["passes"]):
        ops += [(k, phase) for phase in p.get("phases", [])]
    return ops


def check_report(report: dict, references: dict | None, label: str = "") -> dict[Op, list[str]]:
    """Failures per operation for one worker report."""
    fails: dict[Op, list[str]] = {}

    def fail(op: Op, msg: str) -> None:
        fails.setdefault(op, []).append(f"{label}{msg}")

    setup = report["setup"]
    if "error" in setup:
        fail((None, "setup"), "raised:\n" + setup["error"])
        return fails
    if not setup["test_sizes"] or min(setup["test_sizes"]) < 1:
        fail((None, "setup"), f"empty evaluation set: sizes {setup['test_sizes'][:10]}")
    if setup["train_clients"] < 1:
        fail((None, "setup"), "no training clients")

    first = None
    for k, p in enumerate(report["passes"]):
        if "error" in p:
            fail((k, p["phases"][-1] if p.get("phases") else "train"), "raised:\n" + p["error"])
            continue
        tr, ev, ce = p["train"], p["eval"], p["centralized"]
        if tr["comm_params_total"] != tr["comm_params_expected"]:
            fail(
                (k, "train"),
                f"ledger {tr['comm_params_total']} != formula {tr['comm_params_expected']}",
            )
        if not _finite(tr):
            fail((k, "train"), "non-finite training output")
        if ev["clients"] < 1:
            fail((k, "eval"), "no clients scored")
        if not _finite(ev) or not ev["metrics"]:
            fail((k, "eval"), f"non-finite or empty eval metrics {ev['metrics']}")
        if ce["examples"] < 1 or not _finite(ce):
            fail((k, "centralized"), "no examples or non-finite centralized output")
        outputs = {
            "train": tr["digest"],
            "eval": ev["metrics"],
            "centralized": ce["digest"],
        }
        if first is None:
            first = outputs
        else:
            for phase, value in outputs.items():
                if value != first[phase]:
                    fail((k, phase), "differs from pass 0 of the same run")

    if references is not None and first is not None:
        rtol = references["rtol"]
        for phase, mismatch in (
            ("train", digest_mismatch(first["train"], references["train_digest"], rtol)),
            ("eval", metrics_mismatch(first["eval"], references["eval_metrics"], rtol)),
            (
                "centralized",
                digest_mismatch(first["centralized"], references["centralized_digest"], rtol),
            ),
        ):
            if mismatch:
                fail((0, phase), f"reference mismatch (rtol {rtol:g}): {mismatch}")
    return fails
