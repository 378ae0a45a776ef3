"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Handwritten-digit files cannot be downloaded in CI, so the desk-scale
pipeline criteria run on the deterministic synthetic digit corpus from
``synth_digits`` written through the real IDX loader path.  The corpus has
different contrast statistics than scanned handwriting, so its configs use a
corpus-matched encoding threshold (30 instead of the scanned-digit default
50); all other parameters are the engine defaults.  Full-scale runs on the
real datasets are documented in the README as out-of-CI reproduction
targets.
"""

import dataclasses
import json
import time

import numpy as np
import pytest

from spikecnn import core, train
from spikecnn.cli import main as cli_main
from spikecnn.config import substream
from spikecnn.core import (ConvKernel, InhibitionConfig, LayerState,
                           conv_accumulate, depress_map, fire_and_inhibit,
                           homeostasis_gate, init_kernel, stdp_competition,
                           stdp_update)
from spikecnn.encode import encode_dataset, load_idx_images
from spikecnn.heads import (FeatureMatrix, RstdpHead, fcn_accuracy,
                            fcn_gradients, fcn_train_epoch, init_fcn_head,
                            one_hot, rstdp_accuracy, rstdp_train_pass,
                            shift_scale_init)
from spikecnn.recon import reconstruct_l4
from spikecnn.train import (ConvPipeline, ForgetPlan, NoiseDemoConfig,
                            TrainPlan, convergence_factor, extract_features,
                            run_forgetting, run_noise_demo, train_conv_layer)
from synth_digits import write_idx_dataset
from test_inference import oracle_max_pool, per_bin_oracle
from test_recon import brute_force_l4

DOG_THRESHOLD = 30.0  # corpus-matched encoding threshold (see module docstring)


def report(number: int, description: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {number} [{description}]: {status}  {detail}")
    assert ok, f"criterion {number} ({description}): {detail}"


# ---------------------------------------------------------------------------
# Shared desk-scale corpus and trained pipeline
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    d = tmp_path_factory.mktemp("corpus")
    t0 = time.monotonic()
    paths = write_idx_dataset(d, n_train=12000, n_test=2000, seed=7)
    train_images, train_labels = load_idx_images(paths["train_images"], paths["train_labels"])
    test_images, test_labels = load_idx_images(paths["test_images"], paths["test_labels"])
    enc_train = encode_dataset(train_images, threshold=DOG_THRESHOLD)
    enc_test = encode_dataset(test_images, threshold=DOG_THRESHOLD)
    return {
        "paths": paths,
        "train_labels": train_labels,
        "test_labels": test_labels,
        "enc_train": enc_train,
        "enc_test": enc_test,
        "encode_seconds": time.monotonic() - t0,
    }


@pytest.fixture(scope="module")
def trained(corpus):
    """Criterion-2 recipe: unsupervised layer training on 2,000 images, the
    classifier head on 10,000, evaluation on 2,000."""
    t0 = time.monotonic()
    kernel = init_kernel(30, 2, 5, substream(0, "init"))
    cfg = InhibitionConfig(threshold=15.0, competition_radius=5)
    stdp_pool = corpus["enc_train"][:2000]
    train_conv_layer(TrainPlan(n_images=2000), stdp_pool, kernel, cfg)

    pipeline = ConvPipeline(kernel, cfg)
    fcn_tensors = corpus["enc_train"][2000:]
    fcn_labels = corpus["train_labels"][2000:]
    feats_train, spikes_train = extract_features(pipeline, fcn_tensors, fcn_labels)
    feats_test, spikes_test = extract_features(pipeline, corpus["enc_test"],
                                               corpus["test_labels"])

    head = init_fcn_head(feats_train.n_cols, 10, substream(0, "head"),
                         cost="cross_entropy", eta0=0.1, eta_decay=1.007, lam=0.1)
    shuffle_rng = substream(0, "shuffle")
    for epoch in range(20):
        fcn_train_epoch(head, feats_train, batch=10, epoch=epoch, rng=shuffle_rng)
    seconds = time.monotonic() - t0
    return {
        "kernel": kernel,
        "cfg": cfg,
        "pipeline": pipeline,
        "feats_train": feats_train,
        "feats_test": feats_test,
        "spikes_per_image": spikes_test,
        "head": head,
        "test_accuracy": fcn_accuracy(head, feats_test),
        "train_seconds": seconds,
    }


# ---------------------------------------------------------------------------
# Criterion 1: pattern-in-noise selectivity
# ---------------------------------------------------------------------------

def test_criterion_1_noise_demo_selectivity():
    t0 = time.monotonic()
    passed = 0
    jaccards = []
    for seed in range(5):
        result = run_noise_demo(NoiseDemoConfig(seed=seed))
        hit, fa = result.selectivity(4000, 5000)
        jaccard = result.support_jaccard()
        jaccards.append(jaccard)
        if hit >= 0.95 and fa <= 0.05 and jaccard >= 0.8:
            passed += 1
    seconds = time.monotonic() - t0
    ok = passed >= 4 and seconds < 60.0
    report(1, "pattern-in-noise selectivity", ok,
           f"{passed}/5 seeds selective, jaccards={['%.2f' % j for j in jaccards]}, "
           f"{seconds:.1f}s")


# ---------------------------------------------------------------------------
# Criteria 2 and 3: desk-scale digit pipeline accuracy and spike sparsity
# ---------------------------------------------------------------------------

def test_criterion_2_pipeline_accuracy(corpus, trained):
    acc = trained["test_accuracy"]
    seconds = corpus["encode_seconds"] + trained["train_seconds"]
    ok = acc >= 0.90 and seconds < 1800.0
    report(2, "desk-scale pipeline accuracy", ok,
           f"test accuracy {acc:.4f} (bar 0.90), wall {seconds:.0f}s (budget 1800s)")


def test_criterion_3_spike_sparsity(trained):
    spikes = trained["spikes_per_image"]
    ok = 5.0 <= spikes <= 40.0
    report(3, "conv-layer spike sparsity", ok,
           f"mean spikes/image {spikes:.1f} (band [5, 40])")


@pytest.fixture
def no_per_bin_inference(monkeypatch):
    """Fails any per-bin fire step, in core or through train's own import
    (the per-bin training loop and ``ConvPipeline`` live in train):
    inference has no fallback."""
    def refuse(*args):
        raise AssertionError("inference ran the per-bin fire step")

    monkeypatch.setattr(core, "fire_and_inhibit", refuse)
    monkeypatch.setattr(train, "fire_and_inhibit", refuse)


def test_candidate_pass_rarely_falls_back(corpus, trained, no_per_bin_inference):
    """``infer_spikes`` finds the neurons that fire in the per-bin reference
    layer, each at its bin, on every test image of the corpus under the
    trained kernel, with no fallback path to take."""
    kernel, cfg = trained["kernel"], trained["cfg"]
    for tensor in corpus["enc_test"]:
        dense = tensor.dense()
        (maps, pos, at, _), _ = core.infer_spikes(dense, kernel, cfg)
        record = per_bin_oracle(dense, kernel, cfg)[0]
        got = np.zeros_like(record)
        got.reshape(*record.shape[:2], -1)[at, maps, pos] = True
        np.testing.assert_array_equal(got, record)


@pytest.mark.parametrize("pool_lateral", [False, True])
def test_pooled_pass_rarely_falls_back(corpus, trained, no_per_bin_inference, pool_lateral):
    """``core.infer_pooled`` emits the events of the reference pooling over
    the per-bin reference layer on every test image of the corpus under the
    trained kernel, with no fallback path to take."""
    kernel = trained["kernel"]
    cfg = dataclasses.replace(trained["cfg"], pool_lateral_inhibition=pool_lateral)
    for tensor in corpus["enc_test"]:
        dense = tensor.dense()
        pooled = oracle_max_pool(*per_bin_oracle(dense, kernel, cfg), pool_lateral)
        want = np.argwhere(pooled)  # canonical (bin, map, row, col) order
        np.testing.assert_array_equal(core.infer_pooled(dense, kernel, cfg)[0], want)


def test_training_pass_rarely_falls_back(corpus, monkeypatch):
    """The criterion-2 recipe's 2,000 STDP images train the same kernel
    bytes through ``train_image`` as through its per-bin loop alone, and
    ``core.train_certified`` sends at most 10% of them to that loop."""
    def fit():
        kernel = init_kernel(30, 2, 5, substream(0, "init"))
        train_conv_layer(TrainPlan(n_images=2000), corpus["enc_train"][:2000], kernel,
                         InhibitionConfig(threshold=15.0, competition_radius=5))
        return kernel

    outcomes = []
    certified = core.train_certified

    def counting(*args):
        n_spikes = certified(*args)
        outcomes.append(n_spikes is not None)
        return n_spikes

    monkeypatch.setattr(train, "train_certified", counting)
    got = fit()
    monkeypatch.setattr(train, "train_image", train._train_image_per_bin)
    want = fit()
    assert got.weights.tobytes() == want.weights.tobytes()
    assert (got.a_plus, got.a_minus) == (want.a_plus, want.a_minus)
    assert len(outcomes) == 2000, "every image holds more events per bin than maps"
    fallbacks = outcomes.count(False)
    assert fallbacks <= 0.10 * len(outcomes), f"{fallbacks} of {len(outcomes)} fell back"


# ---------------------------------------------------------------------------
# Criterion 4: inhibition and competition invariants on random images
# ---------------------------------------------------------------------------

def test_criterion_4_inhibition_invariants():
    rng = np.random.default_rng(1234)
    kernel = init_kernel(8, 2, 5, rng)
    cfg = InhibitionConfig(threshold=12.0, competition_radius=5)
    radius = cfg.competition_radius
    violations = 0
    for _ in range(1000):
        dense = rng.random((6, 2, 16, 16)) < rng.uniform(0.05, 0.3)
        state = LayerState(8, 12, 12)
        state.begin_image()
        potentials = np.zeros((8, 12, 12))
        winners = []
        for t in range(6):
            conv_accumulate(dense[t], kernel.weights, potentials)
            fired = fire_and_inhibit(potentials, state, cfg)
            winners.extend(stdp_competition(fired, potentials, state, radius))
        if state.fired.sum(axis=0).max(initial=0) > 1:
            violations += 1
        # brute-force all-pairs window oracle over this image's winners
        for i in range(len(winners)):
            for j in range(i + 1, len(winners)):
                _, u1, v1 = winners[i]
                _, u2, v2 = winners[j]
                if max(abs(u1 - u2), abs(v1 - v2)) <= 2 * radius:
                    violations += 1
        maps_won = [m for m, _, _ in winners]
        if len(maps_won) != len(set(maps_won)):
            violations += 1
    report(4, "inhibition/competition invariants", violations == 0,
           f"{violations} violations over 1000 random images")


# ---------------------------------------------------------------------------
# Criterion 5: weight-domain invariants under randomized update storms
# ---------------------------------------------------------------------------

def test_criterion_5_weight_domain():
    rng = np.random.default_rng(99)
    kernel = ConvKernel(rng.uniform(0, 1, size=(4, 2, 5, 5)),
                        a_plus=0.02, a_minus=0.015)
    rhead = RstdpHead(rng.uniform(0, 1, size=(6, 40)), miss_ratio=0.6)
    state = LayerState(4, 8, 8)
    updates = 0
    violations = 0
    from spikecnn.heads import rstdp_update
    while updates < 100_000:
        kind = rng.integers(3)
        if kind == 0:
            stdp_update(kernel, int(rng.integers(4)), rng.random((2, 5, 5)) < 0.5)
        elif kind == 1:
            m = int(rng.integers(4))
            if not homeostasis_gate(state, m):
                depress_map(kernel, m)
            if rng.random() < 0.1:
                state.images_seen += 1
                state.begin_image()
        else:
            rstdp_update(rhead, int(rng.integers(6)), int(rng.integers(6)),
                         rng.random(40) < 0.4)
        updates += 1
        if updates % 5000 == 0:
            if kernel.weights.min() < 0 or kernel.weights.max() > 1:
                violations += 1
            if rhead.weights.min() < 0 or rhead.weights.max() > 1:
                violations += 1
            factor = convergence_factor(kernel)
            if not 0.0 <= factor <= 0.25:
                violations += 1
    ok = (violations == 0 and kernel.weights.min() >= 0 and kernel.weights.max() <= 1
          and rhead.weights.min() >= 0 and rhead.weights.max() <= 1)
    report(5, "weight-domain invariants", ok,
           f"{updates} randomized updates, {violations} violations")


# ---------------------------------------------------------------------------
# Criterion 6: gradient checks
# ---------------------------------------------------------------------------

def test_criterion_6_gradient_check():
    from test_heads import numerical_gradients
    rng = np.random.default_rng(2024)
    worst = 0.0
    for cost in ("cross_entropy", "quadratic"):
        for _ in range(50):
            head = init_fcn_head(5, 3, rng, cost=cost, lam=float(rng.uniform(0, 2)))
            x = rng.normal(size=(6, 5))
            y = one_hot(rng.integers(0, 3, size=6), 3)
            gw, gb = fcn_gradients(head, x, y, n_total=25)
            nw, nb = numerical_gradients(head, x, y, n_total=25)
            rel_w = np.max(np.abs(gw - nw) / np.maximum(np.abs(nw), 1e-8))
            rel_b = np.max(np.abs(gb - nb) / np.maximum(np.abs(nb), 1e-8))
            worst = max(worst, rel_w, rel_b)
    report(6, "analytic vs finite-difference gradients", worst < 1e-5,
           f"max relative error {worst:.2e} over 50 heads x 2 costs (bar 1e-5)")


# ---------------------------------------------------------------------------
# Criterion 7: forgetting retention and rehearsal
# ---------------------------------------------------------------------------

def test_criterion_7_forgetting(corpus):
    t0 = time.monotonic()
    labels = corpus["train_labels"]
    enc = corpus["enc_train"]

    a_classes, b_classes = (0, 1, 2, 3, 4), (5, 6, 7, 8, 9)
    per_class = 500
    a_idx = np.concatenate([np.nonzero(labels == c)[0][:per_class] for c in a_classes])
    b_idx = np.concatenate([np.nonzero(labels == c)[0][:per_class] for c in b_classes])

    kernel = init_kernel(30, 2, 5, substream(2, "init"))
    cfg = InhibitionConfig(threshold=15.0, competition_radius=5)
    stdp_pool = [enc[i] for i in a_idx[:2000]]
    train_conv_layer(TrainPlan(n_images=2000), stdp_pool, kernel, cfg)
    pipeline = ConvPipeline(kernel, cfg)

    pool_idx = np.concatenate([a_idx, b_idx])
    feats, _ = extract_features(pipeline, [enc[i] for i in pool_idx], labels[pool_idx])
    val, _ = extract_features(pipeline, corpus["enc_test"], corpus["test_labels"])
    a_mask = np.isin(feats.labels, a_classes)
    train_a = FeatureMatrix(feats.values[a_mask], feats.labels[a_mask])
    train_b = FeatureMatrix(feats.values[~a_mask], feats.labels[~a_mask])

    # phase 1 is identical across fractions: train once, replay copies
    fractions = (0.0, 0.10, 0.15, 0.25, 0.275, 0.30)
    base_plan = ForgetPlan(rehearsal_fractions=fractions, epochs=20, seed=3)
    phase1_rng = np.random.default_rng(base_plan.seed)
    phase1 = init_fcn_head(train_a.n_cols, 10, phase1_rng, cost="cross_entropy",
                           eta0=base_plan.eta0, eta_decay=base_plan.eta_decay,
                           lam=base_plan.lam)
    for epoch in range(base_plan.epochs):
        fcn_train_epoch(phase1, train_a, base_plan.batch, epoch, phase1_rng)

    retention = {}
    combined = {}
    for frac, result in zip(fractions, run_forgetting(base_plan, train_a, train_b, val,
                                                      head=phase1)):
        final_a, _, final_comb = result.final()
        retention[frac] = final_a
        combined[frac] = final_comb
    seconds = time.monotonic() - t0

    # Monotonicity is judged within the probe resolution: one binomial sigma
    # on the 2,000-image validation split at ~0.95 accuracy is ~0.005, and
    # the reference full-scale sweep separates the top fractions by about
    # one tenth of a point, below what this split can resolve.
    noise = 0.005
    retention_vals = [retention[f] for f in fractions]
    combined_vals = [combined[f] for f in fractions]
    monotone = all(x <= y + noise for x, y in zip(retention_vals, retention_vals[1:]))
    monotone &= all(x <= y + noise for x, y in zip(combined_vals, combined_vals[1:]))
    gain = combined[0.10] - combined[0.0]
    ok = (retention[0.0] >= 0.50 and gain >= 0.05 and monotone and seconds < 1200.0)
    report(7, "forgetting retention and rehearsal", ok,
           f"retention@0 {retention[0.0]:.3f} (bar 0.50), combined gain "
           f"{gain * 100:.1f}pts (bar 5), retention by fraction "
           f"{['%.3f' % retention[f] for f in fractions]} monotone={monotone} "
           f"(tolerance {noise}), {seconds:.0f}s (budget 1200s)")


# ---------------------------------------------------------------------------
# Criterion 8: reward-modulated head sensitivity to the ratio window
# ---------------------------------------------------------------------------

def test_criterion_8_rstdp_sensitivity(trained):
    # Backprop-initialized weights, shifted and scaled into [0, 1].  The
    # ratio estimate starts fully wrong (miss ratio 1) so the first window
    # of each batch run is overdriven; frequent ratio updates are the only
    # difference between the four runs.  Punishment uses strong targeted
    # depression on spiking inputs (the silent-heavy default is unstable
    # over long runs at this scale; see the decisions ledger).
    w01 = shift_scale_init(trained["head"].weights)
    pool = FeatureMatrix(trained["feats_train"].values[:2500],
                         trained["feats_train"].labels[:2500])
    val = trained["feats_test"]

    def run(mode: str, window: int) -> float:
        head = RstdpHead(w01.copy(), ratio_mode=mode, window=window,
                         miss_ratio=1.0, a_r_plus=0.012, a_r_minus=0.003,
                         a_p_plus=0.004, a_p_minus=0.0005)
        rng = substream(8, f"rstdp-{mode}-{window}")
        for _ in range(6):
            rstdp_train_pass(head, pool, rng)
        return rstdp_accuracy(head, val)

    start = rstdp_accuracy(RstdpHead(w01.copy()), val)
    batch_small = run("batch", 100)
    batch_large = run("batch", 2500)
    per_small = run("per_image", 100)
    per_large = run("per_image", 2500)

    batch_gap = batch_small - batch_large
    per_gap = abs(per_small - per_large)
    ok = batch_gap >= 0.03 and per_gap < 0.01
    report(8, "reward-modulated window sensitivity", ok,
           f"start {start:.3f}; batch N=100 {batch_small:.3f} vs N=2500 "
           f"{batch_large:.3f} (gap {batch_gap * 100:.1f}pts, bar 3); per-image "
           f"{per_small:.3f} vs {per_large:.3f} (gap {per_gap * 100:.1f}pts, bar <1)")


# ---------------------------------------------------------------------------
# Criterion 9: reconstruction equals brute-force superposition
# ---------------------------------------------------------------------------

def test_criterion_9_reconstruction_oracle():
    rng = np.random.default_rng(77)
    worst = 0.0
    for _ in range(100):
        w1 = rng.uniform(0, 1, size=(3, 2, 5, 5))
        w2 = np.where(rng.random((2, 3, 5, 5)) < 0.4,
                      rng.uniform(0, 1, size=(2, 3, 5, 5)), 0.0)
        got = reconstruct_l4(w2, w1)
        want = brute_force_l4(w2, w1)
        for g, w in zip(got, want):
            worst = max(worst, float(np.abs(g.on - w[0]).max()),
                        float(np.abs(g.off - w[1]).max()))
    # exact linearity
    w1 = rng.uniform(0, 1, size=(3, 2, 5, 5))
    a = rng.uniform(0, 1, size=(2, 3, 5, 5))
    b = rng.uniform(0, 1, size=(2, 3, 5, 5))
    fa, fb, fab = reconstruct_l4(a, w1), reconstruct_l4(b, w1), reconstruct_l4(a + b, w1)
    linear = all(np.allclose(z.on, x.on + y.on, atol=1e-12)
                 and np.allclose(z.off, x.off + y.off, atol=1e-12)
                 for x, y, z in zip(fa, fb, fab))
    ok = worst <= 1e-12 and linear
    report(9, "reconstruction oracle", ok,
           f"max |diff| {worst:.1e} over 100 random tensors (bar 1e-12), "
           f"linearity={'exact' if linear else 'violated'}")


# ---------------------------------------------------------------------------
# Criterion 10: byte-identical replay from a manifest
# ---------------------------------------------------------------------------

def test_criterion_10_determinism(tmp_path):
    paths = write_idx_dataset(tmp_path / "data", n_train=150, n_test=50, seed=12)
    compared = []
    outs = []
    for name in ("first", "second"):
        out = tmp_path / name
        cfg = {
            "seed": 42,
            "out_dir": str(out),
            "dataset": dict(paths),
            "encoding": {"threshold": DOG_THRESHOLD},
            "layer": {"maps": 12},
            "plan": {"n_images": 150, "monitor_stride": 50},
            "head": {"epochs": 3},
            "demo": {"duration": 600},
        }
        cfg_path = tmp_path / f"{name}.json"
        cfg_path.write_text(json.dumps(cfg))
        for cmd in ("encode", "train", "features", "classify", "eval", "demo-stdp"):
            assert cli_main([cmd, "--config", str(cfg_path), "--threads", "1"]) == 0
        # the second lap replays purely from the first lap's manifests
        if name == "second":
            for cmd in ("train", "features", "classify", "eval", "demo-stdp"):
                manifest = outs[0] / f"manifest-{cmd}.json"
                assert cli_main([cmd, "--config", str(manifest), "--threads", "1",
                                 "--out", str(out)]) == 0
        outs.append(out)
    names = ["kernel-l2.skrn", "monitor-l2.csv", "features-train.fmat",
             "features-test.fmat", "head-fcn.skhd", "classify-curve.csv",
             "eval-metrics.csv", "demo-raster.csv", "demo-output-spikes.csv",
             "demo-selectivity.csv", "demo-weights.csv"]
    mismatched = [n for n in names
                  if (outs[0] / n).read_bytes() != (outs[1] / n).read_bytes()]
    compared = len(names)
    report(10, "byte-identical replay", not mismatched,
           f"{compared} artifacts compared, mismatches: {mismatched or 'none'}")
