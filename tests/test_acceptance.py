"""Acceptance suite: one test per shipping criterion, each printing a
PASS/FAIL line (run with ``pytest tests/test_acceptance.py -s`` to see them).

Criteria 1-5 reproduce published MovieLens 1M numbers and orderings; the
dataset's license requires a manual download, so those tests skip with an
explanation when the file is absent (set ``ML1M_PATH`` or place
``data/ml-1m/ratings.dat``).  Desk-scale mechanism analogues of the skipped
criteria run unconditionally further down.  Criteria 6-10 are dataset-free
and always run.
"""

import dataclasses
import time
from dataclasses import replace

import numpy as np
import pytest

from partialfed.client import (
    ClientHyper,
    SplitPolicy,
    split_dataset,
    verify_first_order_meta_gradient,
)
from partialfed.config import load_config
from partialfed.core import Batch, ParamBlock, RngStreams, check_gradients
from partialfed.data import (
    SyntheticDataConfig,
    build_vocabulary,
    corpus_to_clients,
    gen_synthetic_corpus,
    gen_synthetic_mf,
    vocabulary_coverage,
)
from partialfed.evaluation import EvalMode, params_to_reach, recon_eval
from partialfed.models import ModelConfig, matfac_spec, oov_nwp_spec
from partialfed.runner import (
    _run_all_repeats,
    prepare_task,
    rerun_manifest,
    run_experiment,
    sweep_steps,
    tradeoff_curves,
)
from partialfed.server import aggregate
from partialfed.client import CohortUpdate
from conftest import movielens_path, requires_movielens


def report(criterion: str, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {criterion}: {detail}"


# ---------------------------------------------------------------------------
# Criteria 1-5: MovieLens 1M (skip when the dataset is not installed)
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def ml_config():
    path = movielens_path()
    if path is None:
        pytest.skip("MovieLens 1M not available")
    return load_config(
        None,
        {
            "task": "matfac",
            "data.path": str(path),
            "seed": 17,
            "eval.repeats": 50,
            "eval.clients_per_repeat": 50,
        },
    )


@pytest.fixture(scope="module")
def ml_fedrecon(ml_config):
    """The partially local training run at the shipped settings (dimension
    50, batch 5, 500 rounds of 100 clients; learning rates are the shipped
    grid selection -- ``reproduce table1 --grid`` re-derives them)."""
    bundle = prepare_task(ml_config)
    _, final, out = _run_all_repeats(ml_config, bundle)
    return bundle, final, out


@requires_movielens
def test_criterion_1_movielens_fedrecon(ml_config, ml_fedrecon):
    _, final, _ = ml_fedrecon
    rmse = final["test"]["rmse"]
    acc = final["test"]["accuracy"]
    report(
        "1 (held-out-user reconstruction quality)",
        rmse <= 0.96 and acc >= 0.41,
        f"rmse={rmse:.4f} (<= 0.96), accuracy={acc:.4f} (>= 0.41)",
    )


@pytest.fixture(scope="module")
def ml_centralized(ml_config):
    """Centralized baseline, seen-user regime, rate picked on validation."""
    best = None
    for rate in (0.1, 0.5, 1.0):
        cfg = load_config(
            None,
            {
                "task": "matfac",
                "data.path": ml_config.data.path,
                "seed": 17,
                "algorithm": "centralized",
                "eval.regime": "standard",
                "centralized.rate": rate,
            },
        )
        _, final, out = _run_all_repeats(cfg, prepare_task(cfg))
        if best is None or final["valid"]["rmse"] < best[0]:
            best = (final["valid"]["rmse"], rate, final, out)
    return best


@requires_movielens
def test_criterion_2_centralized_baseline(ml_centralized):
    _, rate, final, _ = ml_centralized
    rmse = final["test"]["rmse"]
    acc = final["test"]["accuracy"]
    report(
        "2 (centralized seen-user baseline)",
        rmse <= 0.98 and acc >= 0.41,
        f"rate={rate}: rmse={rmse:.4f} (<= 0.98), accuracy={acc:.4f} (>= 0.41)",
    )


@requires_movielens
def test_criterion_3_table_orderings(ml_config, ml_fedrecon):
    _, fedrecon_final, _ = ml_fedrecon
    comparisons = {}
    for name, over in (
        ("centralized_recon", {"algorithm": "centralized", "eval.regime": "recon"}),
        ("fedavg_standard", {"algorithm": "fedavg", "eval.regime": "standard"}),
    ):
        cfg = load_config(
            None,
            {"task": "matfac", "data.path": ml_config.data.path, "seed": 17, **over},
        )
        _, final, _ = _run_all_repeats(cfg, prepare_task(cfg))
        comparisons[name] = final["test"]["rmse"]
    ours = fedrecon_final["test"]["rmse"]
    ok = ours < comparisons["centralized_recon"] and ours <= comparisons["fedavg_standard"]
    report(
        "3 (ordering claims)",
        ok,
        f"fedrecon {ours:.4f} < centralized+recon {comparisons['centralized_recon']:.4f} "
        f"and <= fedavg+standard {comparisons['fedavg_standard']:.4f}",
    )


@requires_movielens
def test_criterion_4_vary_reconstruction_steps(ml_config, ml_fedrecon):
    result = sweep_steps(ml_config, "k_r", [0, 1])
    by_value = {v: (acc, rel) for v, acc, rel in result.rows}
    ok = by_value[0][0] < 0.01 and by_value[1][1] >= 0.90
    report(
        "4 (reconstruction-step sweep)",
        ok,
        f"k_r=0 accuracy {by_value[0][0]:.4f} (< 0.01); "
        f"k_r=1 relative {by_value[1][1]:.3f} (>= 0.90)",
    )


@requires_movielens
def test_criterion_5_vary_update_steps(ml_config):
    result = sweep_steps(ml_config, "k_u", [1, 2, 5, 10])
    rels = [rel for _, _, rel in result.rows]
    non_decreasing = all(b >= a - 0.01 for a, b in zip(rels, rels[1:]))
    ok = rels[0] >= 0.90 and non_decreasing
    report(
        "5 (update-step sweep)",
        ok,
        f"k_u=1 relative {rels[0]:.3f} (>= 0.90); trend {['%.3f' % r for r in rels]} "
        "non-decreasing within 1%",
    )


# ---------------------------------------------------------------------------
# Criterion 6: communication ledger identities and the tradeoff curve
# ---------------------------------------------------------------------------


def test_criterion_6_communication_ledger(tmp_path):
    cfg = load_config(
        None,
        {
            "task": "synthetic",
            "seed": 17,
            "rounds": 100,
            "eval.clients_per_repeat": 30,
            "output_dir": str(tmp_path),
        },
    )
    # Exact integer identities per round for both algorithm families.
    bundle = prepare_task(cfg)
    g_size = bundle.spec.init_global(RngStreams(0).generator("x"))[0].values.size
    l_size = cfg.model.embed_dim
    m = min(cfg.clients_per_round, len(bundle.train_clients))
    _, _, fr = _run_all_repeats(replace(cfg, rounds=3), bundle)
    fa_cfg = load_config(
        None,
        {
            "task": "synthetic", "seed": 17, "rounds": 3, "algorithm": "fedavg",
            "eval.regime": "recon", "eval.clients_per_repeat": 30,
        },
    )
    ledger_ok = True
    fr_rows = [r for r in fr.rows if r[1] == "train"]
    fr_cums = sorted({r[4] for r in fr_rows})
    ledger_ok &= fr_cums == [m * 2 * g_size * (i + 1) for i in range(3)]
    fa_out = _run_all_repeats(fa_cfg, bundle)[2]
    fa_cums = sorted({r[4] for r in fa_out.rows if r[1] == "train"})
    ledger_ok &= fa_cums == [m * 2 * (g_size + l_size) * (i + 1) for i in range(3)]

    # Accuracy-vs-communication dominance at every accuracy level both reach.
    curves = tradeoff_curves(cfg, eval_every=20)
    fr_curve, fa_curve = curves["fedrecon"], curves["fedavg"]
    fr_params = [c for _, c, _ in fr_curve]
    fr_acc = [a for _, _, a in fr_curve]
    fa_params = [c for _, c, _ in fa_curve]
    fa_acc = [a for _, _, a in fa_curve]
    levels = np.linspace(0.05, min(max(fr_acc), max(fa_acc)), 8)
    dominance = True
    for level in levels:
        ours = params_to_reach(fr_params, fr_acc, level)
        theirs = params_to_reach(fa_params, fa_acc, level)
        dominance &= ours is not None and (theirs is None or ours < theirs)
    report(
        "6 (communication ledger)",
        bool(ledger_ok and dominance),
        f"per-round identities exact (2|g|={2*g_size} vs 2(|g|+|l|)={2*(g_size+l_size)} "
        f"per client); fewer cumulative params at all {len(levels)} shared accuracy levels",
    )


# ---------------------------------------------------------------------------
# Criterion 7: the single-step meta-gradient identity
# ---------------------------------------------------------------------------


def test_criterion_7_first_order_meta_gradient():
    tol = 1e-4
    worst_a = 0.0
    worst_k0 = 0.0
    streams = RngStreams(2024)
    n_each = 20

    for i in range(n_each):
        rng = streams.generator("mf", i)
        seed = int(rng.integers(2**31))
        clients, _, _ = gen_synthetic_mf(
            SyntheticDataConfig(num_users=3, num_items=5, true_rank=2, ratings_per_user=5,
                                noise_std=0.3, signal_std=0.8),
            seed,
        )
        spec = matfac_spec(ModelConfig(embed_dim=2), 5)
        ds = split_dataset(clients[0], SplitPolicy(), streams.generator("mfs", i))
        g = spec.init_global(streams.generator("mfg", i))
        k_r = int(rng.integers(0, 3))
        hyper = ClientHyper(k_r=k_r, k_u=1, eta_r=0.1, eta_u=0.1, batch_size=3)
        rep = verify_first_order_meta_gradient(spec, g, ds, hyper, RngStreams(seed))
        worst_a = max(worst_a, rep.first_order_max_rel_err)
        if k_r == 0:
            worst_k0 = max(worst_k0, rep.composite_max_rel_gap)

    nwp_cfg = ModelConfig(vocab_size=4, num_oov_buckets=2, embed_dim=2,
                          context_window=2, max_sentence_len=8)
    nwp = oov_nwp_spec(nwp_cfg)
    for i in range(n_each):
        rng = streams.generator("nwp", i)
        seed = int(rng.integers(2**31))
        records = gen_synthetic_corpus(
            SyntheticDataConfig(num_clients=2, sentences_per_client=3, personal_tokens=2,
                                common_words=3, pairs_per_sentence=2),
            seed,
        )
        clients, _, _ = corpus_to_clients(records, nwp_cfg)
        ds = split_dataset(clients[0], SplitPolicy(), streams.generator("ns", i))
        g = nwp.init_global(streams.generator("ng", i))
        k_r = int(rng.integers(0, 3))
        hyper = ClientHyper(k_r=k_r, k_u=1, eta_r=0.1, eta_u=0.1, batch_size=4)
        rep = verify_first_order_meta_gradient(nwp, g, ds, hyper, RngStreams(seed))
        worst_a = max(worst_a, rep.first_order_max_rel_err)
        if k_r == 0:
            worst_k0 = max(worst_k0, rep.composite_max_rel_gap)

    # k_r=0 must also coincide with the composite gradient at FD tolerance.
    ok = worst_a < tol and worst_k0 < tol
    report(
        "7 (first-order meta-gradient)",
        ok,
        f"worst frozen-local check {worst_a:.2e} (< 1e-4) over {2 * n_each} instances; "
        f"worst k_r=0 composite gap {worst_k0:.2e} (< 1e-4)",
    )


# ---------------------------------------------------------------------------
# Criterion 8: out-of-vocabulary mechanism at desk scale
# ---------------------------------------------------------------------------


def test_criterion_8_oov_mechanism():
    records = gen_synthetic_corpus(SyntheticDataConfig(), 17)
    vocab = build_vocabulary(records, 48)
    oov_rate = 1.0 - vocabulary_coverage(records, vocab)
    assert oov_rate >= 0.30, f"corpus out-of-vocabulary rate {oov_rate:.3f} below 0.30"

    def run(**over):
        # Three derived-seed reruns averaged, matching the reporting protocol
        # the comparison numbers follow; single desk-scale runs are noisy.
        cfg = load_config(None, {"task": "oov_nwp", "seed": 17, "repeats": 3, **over})
        _, final, _ = _run_all_repeats(cfg, prepare_task(cfg))
        return final["test"]["accuracy"]

    acc_many = run(**{"model.num_oov_buckets": 500})
    acc_one = run(**{"model.num_oov_buckets": 1})
    acc_no_split = run(**{"model.num_oov_buckets": 500, "split.kind": "no_split"})
    acc_joint = run(**{"model.num_oov_buckets": 500, "client.joint_training": True})

    ok_i = acc_many > acc_one
    ok_ii = acc_no_split >= acc_many - 0.02 and acc_joint >= acc_many - 0.02
    report(
        "8 (local out-of-vocabulary embeddings)",
        ok_i and ok_ii,
        f"oov rate {oov_rate:.2f}; 500 buckets {acc_many:.4f} > 1 bucket {acc_one:.4f}; "
        f"no-split {acc_no_split:.4f} and joint {acc_joint:.4f} within 0.02 of base",
    )


# ---------------------------------------------------------------------------
# Criterion 9: determinism and aggregation invariants
# ---------------------------------------------------------------------------


def test_criterion_9_determinism_and_invariants(tmp_path):
    cfg = load_config(
        None,
        {
            "task": "synthetic", "seed": 11, "rounds": 6, "clients_per_round": 5,
            "eval.repeats": 2, "eval.clients_per_repeat": 5,
            "data.synthetic.num_users": 40, "data.synthetic.num_items": 12,
            "data.synthetic.ratings_per_user": 8, "data.synthetic.true_rank": 3,
            "model.embed_dim": 3, "client.k_r": 3, "client.k_u": 3,
            "output_dir": str(tmp_path / "a"),
        },
    )
    first = run_experiment(cfg)
    again = rerun_manifest(first.manifest_path, tmp_path / "b")
    byte_identical = first.csv_path.read_bytes() == again.csv_path.read_bytes()

    rng = np.random.default_rng(99)
    fuzz_ok = True
    for _ in range(1000):
        k = int(rng.integers(1, 8))
        dim = int(rng.integers(1, 5))
        n = rng.integers(1, 100, size=k)
        values = rng.normal(size=(k, dim, 1))

        def update(sel):
            """Clients ``sel`` as one owner chunk, each moving every row."""
            m = len(n[sel])
            return CohortUpdate(np.arange(k)[sel], n[sel], np.tile(np.arange(dim), m),
                                values[sel].reshape(-1, 1), np.arange(m + 1) * dim, [])

        template = [ParamBlock.of("g", np.zeros(dim))]
        delta, total = aggregate([update(slice(None))], template)
        weights_sum = sum(int(n_i) / total for n_i in n)
        fuzz_ok &= abs(weights_sum - 1.0) <= 1e-12
        delta2, _ = aggregate([update(slice(c, c + 1)) for c in range(k)], template)
        fuzz_ok &= np.array_equal(delta[0], delta2[0])

    report(
        "9 (determinism)",
        byte_identical and fuzz_ok,
        "manifest rerun reproduces metrics.csv byte-for-byte; weight normalization "
        "and owner-chunk invariance held on 1000 fuzz cases",
    )


# ---------------------------------------------------------------------------
# Criterion 10: gradient checks for every shipped model
# ---------------------------------------------------------------------------


def test_criterion_10_gradient_checks():
    tol, eps, instances = 1e-4, 1e-5, 100
    start = time.monotonic()
    streams = RngStreams(7)
    worst = {"matfac": 0.0, "oov_nwp": 0.0}

    for i in range(instances):
        rng = streams.generator("gc_mf", i)
        num_items = int(rng.integers(3, 8))
        spec = matfac_spec(ModelConfig(embed_dim=int(rng.integers(2, 5))), num_items)
        g = spec.init_global(rng)
        l = spec.init_local(rng)
        n = int(rng.integers(1, 6))
        batch = Batch(
            features=rng.integers(0, num_items, size=n),
            targets=rng.integers(1, 6, size=n).astype(float),
            weights=rng.uniform(0.5, 2.0, size=n),
        )
        worst["matfac"] = max(worst["matfac"], check_gradients(spec, g, l, batch, eps).max_rel_err)

    for i in range(instances):
        rng = streams.generator("gc_nwp", i)
        cfg = ModelConfig(
            vocab_size=int(rng.integers(3, 7)),
            num_oov_buckets=int(rng.integers(1, 4)),
            embed_dim=int(rng.integers(2, 4)),
            context_window=int(rng.integers(1, 4)),
        )
        spec = oov_nwp_spec(cfg)
        g = spec.init_global(rng)
        l = spec.init_local(rng)
        n = int(rng.integers(1, 6))
        batch = Batch(
            features=rng.integers(-cfg.num_oov_buckets, cfg.num_classes,
                                  size=(n, cfg.context_window)),
            targets=rng.integers(0, cfg.num_classes, size=n).astype(float),
            weights=rng.uniform(0.5, 2.0, size=n),
        )
        worst["oov_nwp"] = max(worst["oov_nwp"], check_gradients(spec, g, l, batch, eps).max_rel_err)

    elapsed = time.monotonic() - start
    ok = all(err < tol for err in worst.values()) and elapsed < 120.0
    report(
        "10 (gradient audits)",
        ok,
        f"worst relative error matfac {worst['matfac']:.2e}, oov_nwp {worst['oov_nwp']:.2e} "
        f"(< 1e-4 over {instances} instances each) in {elapsed:.1f}s (< 120s)",
    )


# ---------------------------------------------------------------------------
# Desk-scale mechanism analogues of the dataset-bound criteria (always run).
# These do not replace criteria 3-5; they exercise the same machinery on the
# synthetic rating benchmark with thresholds the benchmark honestly meets.
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def synthetic_runs():
    outputs = {}
    for name, over in (
        ("fedrecon", {"algorithm": "fedrecon", "eval.regime": "recon"}),
        ("centralized_recon", {"algorithm": "centralized", "eval.regime": "recon"}),
        ("fedavg_standard", {"algorithm": "fedavg", "eval.regime": "standard"}),
    ):
        cfg = load_config(
            None, {"task": "synthetic", "seed": 17, "rounds": 150, "eval.repeats": 10, **over}
        )
        bundle = prepare_task(cfg)
        _, final, out = _run_all_repeats(cfg, bundle)
        outputs[name] = (cfg, bundle, final, out)
    return outputs


def test_analogue_3_orderings_on_synthetic(synthetic_runs):
    ours = synthetic_runs["fedrecon"][2]["test"]["rmse"]
    centralized = synthetic_runs["centralized_recon"][2]["test"]["rmse"]
    fedavg = synthetic_runs["fedavg_standard"][2]["test"]["rmse"]
    print(
        f"analogue 3: fedrecon {ours:.4f} vs centralized+recon {centralized:.4f} "
        f"vs fedavg+standard {fedavg:.4f}"
    )
    assert ours < centralized
    assert ours <= fedavg


def test_analogue_4_reconstruction_steps_on_synthetic(synthetic_runs):
    cfg, bundle, _, out = synthetic_runs["fedrecon"]

    def accuracy_at(k_r):
        mode = EvalMode(
            kind="recon_eval",
            recon_hyper=dataclasses.replace(cfg.eval_hyper(), k_r=k_r),
            repeats=10,
            clients_per_repeat=30,
        )
        return recon_eval(
            bundle.spec, out.global_params, bundle.test_clients, cfg.split,
            mode, RngStreams(17), namespace=f"analogue4:{k_r}",
        ).metrics["accuracy"]

    base = accuracy_at(cfg.client.k_r)
    accs = {k: accuracy_at(k) for k in (0, 1, 2, 5, 10)}
    print(f"analogue 4: base {base:.4f}; " + ", ".join(f"k_r={k}: {a:.4f}" for k, a in accs.items()))
    assert accs[0] < 0.01  # skipping reconstruction leaves random embeddings
    assert accs[1] > 0.25 * base  # one step already recovers real signal
    assert accs[10] >= 0.80 * base
    ordered = [accs[k] for k in (0, 1, 2, 5, 10)]
    assert all(b >= a - 0.02 for a, b in zip(ordered, ordered[1:]))


def test_analogue_5_update_steps_on_synthetic():
    cfg = load_config(
        None, {"task": "synthetic", "seed": 17, "rounds": 150, "eval.repeats": 5}
    )
    result = sweep_steps(cfg, "k_u", [1, 5, 20])
    rels = {v: rel for v, _, rel in result.rows}
    print(f"analogue 5: base k_u={result.base_value}; relatives {rels}")
    assert rels[20] == pytest.approx(1.0)
    assert rels[1] > 0.5  # single-step training is slower but works
    assert rels[1] <= rels[5] + 0.02 and rels[5] <= rels[20] + 0.02
