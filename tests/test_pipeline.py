"""Training-loop tests: warm-up behavior, identification, epoch mechanics,
checkpoint resumability, and run-level determinism."""

import copy
import dataclasses
import hashlib
import json
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import rematch.encoder as enc
import rematch.pipeline as pl
import rematch.transport as transport
from rematch.costs import CostNetParams, cost_net_step, reconstruct_pairs
from rematch.data import identification_score, make_benchmark
from rematch.losses import matching_probs, rce_loss, triplet_loss_batch, warmup_loss
from rematch.mixture import fit_bmm, partition
from rematch.pipeline import (
    TrainConfig,
    evaluate,
    init_state,
    load_state,
    per_sample_losses,
    random_ranking_rsum,
    run_experiment,
    save_state,
    split_indices,
    train_epoch,
    warmup,
)
from rematch.transport import SinkhornConfig

SMALL = dict(warmup_epochs=2, train_epochs=2, lr_decay_epoch=3, batch_size=32)
# the dataset and schedule of acceptance criterion 9
DETERMINISM_DATA = dict(n=200, classes=5, noise=0.1, mrate=0.4, rng_seed=3)
DETERMINISM = dict(seed=3, optimizer="adam", warmup_epochs=3, train_epochs=3,
                   lr_decay_epoch=4, batch_size=32)


# at least one out-of-bounds value for every TrainConfig field
BAD_SETTINGS = [
    ("warmup_epochs", -3), ("warmup_epochs", 1.0), ("train_epochs", 0),
    ("train_epochs", -1), ("lr_decay_epoch", 0), ("batch_size", 1),
    ("batch_size", True), ("alpha", -1), ("alpha", float("nan")),
    ("tau", 0), ("tau", float("inf")), ("eps", 0), ("eps", 0.5),
    ("rho", -0.1), ("rho", 2), ("lam", 0), ("lam", float("nan")),
    ("reserve_ratio", 0), ("reserve_ratio", 2), ("threshold", -0.5),
    ("threshold", 2), ("lr_model", float("nan")), ("lr_model", 0),
    ("lr_cost", float("inf")), ("lr_cost", -1e-6), ("seed", -1),
    ("seed", "0"), ("embed_dim", 1), ("rce_weight", -1),
    ("rce_weight", "1"), ("mode", "other"), ("cost_mode", "l2"),
    ("mask_positives", 1), ("partial", "yes"), ("rematch_variant", "js"),
    ("em_iters", 0), ("em_tol", 0), ("em_tol", float("-inf")),
    ("ot_tol", 0), ("ot_tol", float("nan")), ("ot_max_iter", 0),
    ("ot_max_iter", 10.0), ("val_frac", 1.5), ("val_frac", 0),
    ("val_frac", 1), ("cost_bound", 0), ("optimizer", "rmsprop"),
    ("optimizer", None),
]

# each TrainConfig field that a library function also takes: the name of the
# function's argument, and a call that passes it a value
LIBRARY_ARGUMENTS = {
    "tau": ("tau", lambda v: matching_probs(np.eye(3), v)),
    "alpha": ("alpha", lambda v: triplet_loss_batch(np.eye(3), v)),
    "eps": ("eps", lambda v: rce_loss(np.eye(3), 0.1, eps=v)),
    "rce_weight": ("rce_weight", lambda v: warmup_loss(np.eye(3), 0.1, rce_weight=v)),
    "threshold": ("threshold", lambda v: partition([0.2, 0.8], threshold=v)),
    "reserve_ratio": ("reserve_ratio",
                      lambda v: reconstruct_pairs(np.ones((4, 3)), np.ones((4, 3)), v, 0)),
    "lr_cost": ("lr", lambda v: cost_net_step(CostNetParams(), np.zeros((2, 2)),
                                              np.eye(2), lr=v)),
    "cost_bound": ("bound", lambda v: cost_net_step(CostNetParams(), np.zeros((2, 2)),
                                                    np.eye(2), lr=0.1, bound=v)),
    "em_iters": ("em_iters", lambda v: fit_bmm(np.linspace(0.1, 0.9, 20), em_iters=v)),
    "em_tol": ("tol", lambda v: fit_bmm(np.linspace(0.1, 0.9, 20), tol=v)),
    "embed_dim": ("d", lambda v: enc.init_params(3, 3, v, 0)),
    "rho": ("rho", lambda v: transport.partial_ot(np.zeros((2, 2)), [0.5, 0.5], [0.5, 0.5],
                                                  rho=v, cfg=SinkhornConfig(lam=0.1))),
}
LIBRARY_BAD_SETTINGS = [(name, value) for name, value in BAD_SETTINGS
                        if name in LIBRARY_ARGUMENTS]


@pytest.fixture(scope="module")
def clean_ds():
    return make_benchmark(n=300, classes=10, noise=0.1, mrate=0.0, rng_seed=0)


@pytest.fixture(scope="module")
def noisy_ds():
    return make_benchmark(n=500, classes=10, noise=0.1, mrate=0.4, rng_seed=0)


@pytest.fixture(scope="module")
def determinism_ds():
    return make_benchmark(**DETERMINISM_DATA)


class TestConfig:
    def test_pinned_defaults(self):
        cfg = TrainConfig()
        assert cfg.threshold == 0.5
        assert cfg.eps == 1e-7
        assert cfg.rho == 0.1
        assert cfg.tau == 0.05
        assert cfg.alpha == 0.2
        assert cfg.batch_size == 128
        assert cfg.lr_model == 2e-4
        assert cfg.lr_cost == 2e-6

    def test_every_field_overridable(self):
        cfg = TrainConfig(rho=0.25, tau=0.1, mode="discard", optimizer="adam")
        assert cfg.rho == 0.25 and cfg.mode == "discard"

    def test_invalid_choices_rejected(self):
        with pytest.raises(ValueError):
            TrainConfig(mode="other")
        with pytest.raises(ValueError):
            TrainConfig(optimizer="rmsprop")

    @pytest.mark.parametrize("name,value", BAD_SETTINGS,
                             ids=[f"{name}={value!r}" for name, value in BAD_SETTINGS])
    def test_bad_value_names_its_field(self, name, value):
        with pytest.raises(ValueError, match=f"^{name} must be"):
            TrainConfig(**{name: value})

    def test_every_field_has_a_bad_value_probed(self):
        probed = {name for name, _ in BAD_SETTINGS}
        assert probed == {f.name for f in dataclasses.fields(TrainConfig)}

    @pytest.mark.parametrize("name,value", [
        ("warmup_epochs", 0), ("lr_decay_epoch", 1), ("batch_size", 2),
        ("embed_dim", 2), ("alpha", 0), ("alpha", 1), ("rce_weight", 0.0),
        ("threshold", 0.0), ("threshold", 1), ("reserve_ratio", 1.0),
        ("rho", 0.0), ("rho", 1.0), ("lam", 1), ("eps", 0.25),
        ("seed", np.int64(7)), ("lr_model", np.float64(0.1)),
    ])
    def test_boundary_and_int_values_accepted(self, name, value):
        assert getattr(TrainConfig(**{name: value}), name) == value

    @pytest.mark.parametrize("name,value", LIBRARY_BAD_SETTINGS,
                             ids=[f"{name}={value!r}" for name, value in LIBRARY_BAD_SETTINGS])
    def test_library_rejects_what_the_config_rejects(self, name, value):
        argument, call = LIBRARY_ARGUMENTS[name]
        with pytest.raises(ValueError, match=rf"^{argument}\b"):
            call(value)

    @pytest.mark.parametrize("name", sorted(LIBRARY_ARGUMENTS))
    def test_library_accepts_the_config_default(self, name):
        LIBRARY_ARGUMENTS[name][1](getattr(TrainConfig(), name))

    def test_solver_settings_are_built_once(self):
        cfg = TrainConfig(lam=0.02, ot_max_iter=50, ot_tol=1e-4)
        assert cfg.solver == SinkhornConfig(lam=0.02, max_iter=50, tol=1e-4)
        assert "solver" not in dataclasses.asdict(cfg)


class TestWarmup:
    def test_zero_epochs_only_touch_the_counter(self, clean_ds):
        cfg = TrainConfig(seed=0, warmup_epochs=0)
        train_idx, _, _ = split_indices(cfg, clean_ds)
        state = init_state(cfg, clean_ds)
        before_v = state.params.w_v.copy()
        warmup(state, clean_ds, cfg, train_idx)
        assert state.epoch == 0
        np.testing.assert_array_equal(state.params.w_v, before_v)

    def test_beats_random_ranking_on_clean_data(self, clean_ds):
        cfg = TrainConfig(seed=0, warmup_epochs=5)
        train_idx, val_idx, _ = split_indices(cfg, clean_ds)
        state = init_state(cfg, clean_ds)
        warmup(state, clean_ds, cfg, train_idx)
        metrics = evaluate(state.params, clean_ds, val_idx)
        baseline = random_ranking_rsum(val_idx.size)
        assert metrics["r1_i2t"] > 100.0 / val_idx.size
        assert metrics["rsum"] > baseline

    def test_batches_hold_at_least_two_pairs(self):
        rng = np.random.default_rng(0)
        assert pl._batches(np.array([7]), 4, rng) == []
        assert [batch.size for batch in pl._batches(np.arange(9), 4, rng)] == [4, 5]
        assert [batch.size for batch in pl._batches(np.arange(8), 4, rng)] == [4, 4]

    def test_sampled_batches_hold_at_least_two_pairs(self):
        # fewer than two rows give no batch and leave the generator as it was
        rng = np.random.default_rng(0)
        assert pl._sample(rng, np.array([], dtype=int), 4) is None
        assert pl._sample(rng, np.array([7]), 4) is None
        assert rng.bit_generator.state == np.random.default_rng(0).bit_generator.state
        assert sorted(pl._sample(rng, np.array([7, 9]), 4)) == [7, 9]
        assert pl._sample(rng, np.arange(9), 4).size == 4

    def test_fixed_batch_loss_non_increasing(self, clean_ds):
        # evaluated on frozen batches so the trace reflects optimization,
        # not epoch-to-epoch batch composition
        cfg = TrainConfig(seed=0, warmup_epochs=1)
        train_idx, _, _ = split_indices(cfg, clean_ds)
        state = init_state(cfg, clean_ds)
        batches = pl._batches(train_idx, cfg.batch_size, np.random.default_rng(123))

        def frozen_loss():
            total = 0.0
            for batch in batches:
                s, _ = enc.similarity(state.params, clean_ds.v_feats[batch],
                                      clean_ds.t_feats[batch])
                total += warmup_loss(s, cfg.tau, cfg.eps)[0]
            return total / len(batches)

        trace = [frozen_loss()]
        for _ in range(6):
            warmup(state, clean_ds, cfg, train_idx)
            trace.append(frozen_loss())
        assert all(later <= earlier + 1e-9
                   for earlier, later in zip(trace, trace[1:]))


class TestPerSampleLosses:
    def test_reproducible_given_seeds(self, noisy_ds):
        cfg = TrainConfig(seed=0, warmup_epochs=2)
        train_idx, _, _ = split_indices(cfg, noisy_ds)
        state = init_state(cfg, noisy_ds)
        warmup(state, noisy_ds, cfg, train_idx)
        first = per_sample_losses(state, noisy_ds, cfg, train_idx)
        second = per_sample_losses(state, noisy_ds, cfg, train_idx)
        np.testing.assert_array_equal(first, second)

    def test_mismatched_pairs_have_higher_losses_after_warmup(self, noisy_ds):
        cfg = TrainConfig(seed=0)
        train_idx, _, _ = split_indices(cfg, noisy_ds)
        state = init_state(cfg, noisy_ds)
        warmup(state, noisy_ds, cfg, train_idx)
        losses = per_sample_losses(state, noisy_ds, cfg, train_idx)
        flags = noisy_ds.matched[train_idx]
        assert losses[flags == 0].mean() > losses[flags == 1].mean()

    def test_dominant_diagonal_gives_zero_loss(self):
        # identical towers over near-orthogonal rows: every pair scores 1
        # with itself while negatives stay far below 1 - margin
        rng = np.random.default_rng(11)
        feats = rng.normal(size=(48, 32))
        from rematch.data import PairDataset
        ds = PairDataset(v_feats=feats, t_feats=feats.copy(),
                         matched=np.ones(48, dtype=np.int8),
                         v_class=np.zeros(48, dtype=np.int64),
                         t_class=np.zeros(48, dtype=np.int64))
        cfg = TrainConfig(seed=0, warmup_epochs=0, batch_size=16, alpha=0.2,
                          embed_dim=32)
        state = init_state(cfg, ds)
        state.params = enc.EncoderParams(np.eye(32), np.eye(32))
        losses = per_sample_losses(state, ds, cfg, np.arange(48))
        assert np.all(losses == 0.0)


class TestIdentification:
    def test_f1_after_default_warmup(self, noisy_ds):
        # regression constant, frozen at first measurement
        cfg = TrainConfig(seed=0)
        train_idx, _, _ = split_indices(cfg, noisy_ds)
        state = init_state(cfg, noisy_ds)
        warmup(state, noisy_ds, cfg, train_idx)
        _, mismatched_pos, _ = pl._identify(state, noisy_ds, cfg, train_idx)
        score = identification_score(mismatched_pos, noisy_ds.matched[train_idx])
        assert score["f1"] >= 0.8
        assert score["f1"] == pytest.approx(0.9198606271777003, abs=1e-9)


class TestTrainEpoch:
    def test_perfect_split_reduces_to_triplet_training(self):
        # with zero feature noise every pair's hinge loss is identical, the
        # mixture fit falls back, and the mismatched subset comes out empty,
        # so the epoch runs on the ranking term alone
        ds = make_benchmark(n=120, classes=2, noise=0.0, mrate=0.0, rng_seed=1)
        cfg = TrainConfig(seed=0, warmup_epochs=0, batch_size=24)
        train_idx, _, _ = split_indices(cfg, ds)
        state = init_state(cfg, ds)
        train_epoch(state, ds, cfg, train_idx)
        record = state.history[-1]
        assert record["partition"]["mismatched"] == 0
        assert record["partition"]["matched"] == train_idx.size
        assert record["bmm"] is None

    def test_epoch_records_required_blocks(self, noisy_ds):
        cfg = TrainConfig(seed=0, warmup_epochs=2, batch_size=64)
        train_idx, _, _ = split_indices(cfg, noisy_ds)
        state = init_state(cfg, noisy_ds)
        warmup(state, noisy_ds, cfg, train_idx)
        train_epoch(state, noisy_ds, cfg, train_idx)
        record = state.history[-1]
        for key in ("bmm", "partition", "identification", "cost_gap",
                    "cost_params", "transport"):
            assert key in record
        assert record["transport"]["solves"] > 0
        assert record["transport"]["unconverged"] == 0
        assert record["cost_gap"]["gap"] == pytest.approx(
            record["cost_gap"]["mean_mismatched"]
            - record["cost_gap"]["mean_matched"])

    def test_cost_update_precedes_model_update(self, noisy_ds):
        # the cost parameters recorded at epoch end must differ from their
        # initial values even though the encoder also moved
        cfg = TrainConfig(seed=0, warmup_epochs=2, batch_size=64,
                          lr_cost=1e-3)
        train_idx, _, _ = split_indices(cfg, noisy_ds)
        state = init_state(cfg, noisy_ds)
        warmup(state, noisy_ds, cfg, train_idx)
        theta_before = state.theta
        train_epoch(state, noisy_ds, cfg, train_idx)
        assert state.theta != theta_before

    @given(n=st.integers(2, 40), data=st.data(),
           reserve_ratio=st.floats(0.01, 1.0))
    @settings(max_examples=60, deadline=None)
    def test_cost_update_substitutes_at_most_the_pool(self, clean_ds, n, data,
                                                      reserve_ratio):
        # pool sizes 0..n: a pool smaller than the substitutions the reserve
        # ratio asks for is used up, and every other slot stays supervised
        pool_size = data.draw(st.integers(0, n), label="pool_size")
        cfg = TrainConfig(seed=0, reserve_ratio=reserve_ratio)
        matched_batch = np.arange(n)
        mismatched_idx = np.arange(n, n + pool_size)
        state = init_state(cfg, clean_ds)
        rebuilt = []
        reconstruct = pl.costs_mod.reconstruct_pairs

        def spy(*args):
            rebuilt.append(reconstruct(*args))
            return rebuilt[-1]

        with mock.patch.object(pl.costs_mod, "reconstruct_pairs", spy):
            pl._cost_update(state, clean_ds, cfg, matched_batch, mismatched_idx)
        (images, pi_sup), = rebuilt
        needed = n - int(np.floor(reserve_ratio * n + 0.5))
        substitutes = min(needed, pool_size)
        assert pi_sup.sum() == n - substitutes
        assert np.flatnonzero(pi_sup.any(axis=0)).size == n - substitutes
        unsupervised = images[pi_sup.sum(axis=1) == 0]
        assert unsupervised.shape[0] == substitutes
        pool = clean_ds.v_feats[mismatched_idx]
        picks = [np.flatnonzero((pool == row).all(axis=1)) for row in unsupervised]
        assert all(pick.size == 1 for pick in picks)
        assert len({int(pick[0]) for pick in picks}) == substitutes


class TestRunExperiment:
    def test_smoke_run_completes_quickly(self):
        import time
        ds = make_benchmark(n=200, classes=5, noise=0.1, mrate=0.4, rng_seed=0)
        started = time.time()
        payload = run_experiment(TrainConfig(seed=0, **SMALL), ds)
        assert time.time() - started < 30
        assert payload["schema"] == "run-metrics/1"
        for key in ("config", "dataset", "splits", "epochs", "best", "test",
                    "random_baseline_rsum"):
            assert key in payload
        assert len(payload["epochs"]) == 4
        assert json.dumps(payload, sort_keys=True)  # JSON-serializable

    def test_identical_runs_produce_identical_payloads(self):
        ds = make_benchmark(n=150, classes=5, noise=0.1, mrate=0.3, rng_seed=1)
        a = run_experiment(TrainConfig(seed=3, **SMALL), ds)
        b = run_experiment(TrainConfig(seed=3, **SMALL), ds)
        a.pop("timing")
        b.pop("timing")
        assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)

    def test_modes_share_the_epoch_budget(self):
        ds = make_benchmark(n=150, classes=5, noise=0.1, mrate=0.3, rng_seed=1)
        for mode in ("rematch", "naive", "discard"):
            payload = run_experiment(TrainConfig(seed=0, mode=mode, **SMALL), ds)
            assert len(payload["epochs"]) == 4, mode

    def test_ablation_toggles_reach_the_loop(self):
        ds = make_benchmark(n=150, classes=5, noise=0.1, mrate=0.3, rng_seed=1)
        payload = run_experiment(
            TrainConfig(seed=0, cost_mode="cosine", mask_positives=False,
                        partial=False, rematch_variant="kl", **SMALL), ds)
        assert payload["config"]["cost_mode"] == "cosine"
        assert payload["config"]["mask_positives"] is False
        assert payload["config"]["partial"] is False

    @pytest.mark.parametrize("mode,best,test_rsum,last_loss", [
        ("rematch", {"epoch": 4, "val_rsum": 337.5}, 240.0, 17.784528853549002),
        ("naive", {"epoch": 5, "val_rsum": 331.25}, 190.0, 17.041659996871974),
        ("discard", {"epoch": 4, "val_rsum": 337.5}, 240.0, 12.52813689850941),
    ])
    def test_pinned_trajectory_per_mode(self, determinism_ds, mode, best,
                                        test_rsum, last_loss):
        # regression constants, frozen at first measurement
        payload = run_experiment(TrainConfig(mode=mode, **DETERMINISM),
                                 determinism_ds)
        assert payload["best"] == pytest.approx(best, abs=1e-9)
        assert payload["test"]["rsum"] == pytest.approx(test_rsum, abs=1e-9)
        assert payload["epochs"][-1]["train_loss"] == pytest.approx(last_loss,
                                                                    abs=1e-9)

    # sha256 of json.dumps(payload without "timing", sort_keys=True), recorded
    # with numpy 2.4 and scipy-openblas on x86-64. A change that alters any
    # number a run computes moves these on purpose; re-record them then and
    # say why. A change meant only to speed a run up must leave them be.
    @pytest.mark.parametrize("mode,digest", [
        ("rematch", "332b7223a1c6caf27f30085dcd4dd5afbec85f6a9445dd063ad37e4de4b4b169"),
        ("naive", "e8713239cc218d49b77bab9e32db73aec55371e01bf7e1371a3d0ddf81a3f50c"),
        ("discard", "6da8ac3de4c668ee88bb1a0fc16d25ceaeb4155f236069428eae9066a4600874"),
    ], ids=["rematch", "naive", "discard"])
    def test_pinned_payload_bytes_per_mode(self, determinism_ds, mode, digest):
        payload = run_experiment(TrainConfig(mode=mode, **DETERMINISM), determinism_ds)
        payload.pop("timing")
        text = json.dumps(payload, sort_keys=True)
        assert hashlib.sha256(text.encode()).hexdigest() == digest

    # the same digests with plain SGD, the default optimizer
    @pytest.mark.parametrize("mode,digest", [
        ("rematch", "2c6170ebdeea4c295d8dc695b7191a27d50fba74ebf18199e94d179b96889506"),
        ("naive", "6bf0908dd36be57ff130866cc014a942042824b2653471284b8c5b12fab9aac2"),
        ("discard", "b4101227158cb27b11ef24d370abd7d366fa8d0609b221433393afcc1043218a"),
    ], ids=["rematch", "naive", "discard"])
    def test_pinned_sgd_payload_bytes_per_mode(self, determinism_ds, mode, digest):
        cfg = TrainConfig(mode=mode, **{**DETERMINISM, "optimizer": "sgd"})
        payload = run_experiment(cfg, determinism_ds)
        payload.pop("timing")
        text = json.dumps(payload, sort_keys=True)
        assert hashlib.sha256(text.encode()).hexdigest() == digest

    # the same digest for a batch-128 rematch run: its solves have 129 free
    # columns, so their Newton directions come from CG (the pins above stay
    # below transport._CG_MIN_DIM)
    def test_pinned_payload_bytes_at_batch_128(self, monkeypatch):
        cg_directions = []
        schur_cg = transport._schur_cg
        monkeypatch.setattr(transport, "_schur_cg",
                            lambda *args: cg_directions.append(1) or schur_cg(*args))
        ds = make_benchmark(n=400, classes=10, noise=0.1, mrate=0.6, rng_seed=5)
        cfg = TrainConfig(mode="rematch", seed=5, optimizer="adam", warmup_epochs=2,
                          train_epochs=2, lr_decay_epoch=3, batch_size=128)
        payload = run_experiment(cfg, ds)
        payload.pop("timing")
        text = json.dumps(payload, sort_keys=True)
        assert cg_directions
        assert hashlib.sha256(text.encode()).hexdigest() == (
            "5dfbabb61a7b06dbe9e94d04f9bff1c85a3ddb1040bb750045c3a3e5ae1d682b")

    def test_unconverged_plans_skip_the_rematch_term(self, determinism_ds,
                                                     monkeypatch):
        # one scaling sweep cannot meet ot_tol, so every solve is counted as
        # unconverged and no step may train on its plan
        def no_rematch_term(*args, **kwargs):
            raise AssertionError("rematch term computed from an unconverged plan")

        monkeypatch.setattr(pl, "rematch_loss", no_rematch_term)
        payload = run_experiment(TrainConfig(mode="rematch", ot_max_iter=1,
                                             **DETERMINISM), determinism_ds)
        records = [r for r in payload["epochs"] if r["phase"] == "train"]
        assert len(records) == DETERMINISM["train_epochs"]
        for record in records:
            assert record["transport"]["solves"] > 0
            assert record["transport"]["unconverged"] == record["transport"]["solves"]

    @pytest.mark.parametrize("mode", ["rematch", "naive", "discard"])
    def test_public_epochs_retrace_the_run(self, determinism_ds, mode):
        cfg = TrainConfig(mode=mode, **DETERMINISM)
        _, run = run_experiment(cfg, determinism_ds, return_state=True)
        train_idx, _, _ = split_indices(cfg, determinism_ds)
        state = init_state(cfg, determinism_ds)
        if mode != "naive":  # naive trains its warm-up epochs on the triplet loss
            warmup(state, determinism_ds, cfg, train_idx)
        while state.epoch < cfg.total_epochs:
            train_epoch(state, determinism_ds, cfg, train_idx)
        np.testing.assert_array_equal(state.params.w_v, run.params.w_v)
        np.testing.assert_array_equal(state.params.w_t, run.params.w_t)
        assert state.theta == run.theta

    @pytest.mark.parametrize("mode", ["rematch", "discard"])
    def test_warmup_records_carry_their_own_validation(self, determinism_ds,
                                                       mode):
        cfg = TrainConfig(mode=mode, **DETERMINISM)
        payload = run_experiment(cfg, determinism_ds)
        train_idx, val_idx, _ = split_indices(cfg, determinism_ds)
        state = init_state(cfg, determinism_ds)
        one_epoch = dataclasses.replace(cfg, warmup_epochs=1)
        records = [r for r in payload["epochs"] if r["phase"] == "warmup"]
        assert len(records) == cfg.warmup_epochs
        for record in records:
            warmup(state, determinism_ds, one_epoch, train_idx)
            assert record["val"] == evaluate(state.params, determinism_ds, val_idx)
        assert payload["best"]["epoch"] >= cfg.warmup_epochs

    def test_too_small_splits_rejected(self):
        ds = make_benchmark(n=60, classes=3, noise=0.1, mrate=0.3, rng_seed=0)
        with pytest.raises(ValueError, match="splits"):
            run_experiment(TrainConfig(seed=0, **SMALL), ds)


class TestOptimizerStep:
    @pytest.mark.parametrize("optimizer", ["sgd", "adam"])
    @pytest.mark.parametrize("projection", ["visual", "text"])
    def test_non_finite_gradient_names_the_projection(self, optimizer,
                                                      projection):
        ds = make_benchmark(n=60, classes=3, noise=0.1, mrate=0.0, rng_seed=0)
        cfg = TrainConfig(optimizer=optimizer, **SMALL)
        state = init_state(cfg, ds)
        before = state.params.copy()
        grads = [np.zeros_like(state.params.w_v), np.zeros_like(state.params.w_t)]
        grads[projection == "text"][0, 0] = np.nan
        with pytest.raises(FloatingPointError,
                           match=f"non-finite gradient in the {projection} projection"):
            pl._apply_update(state, cfg, *grads, lr=0.1)
        np.testing.assert_array_equal(state.params.w_v, before.w_v)
        np.testing.assert_array_equal(state.params.w_t, before.w_t)
        if optimizer == "adam":
            assert state.adam.step == 0


def assert_resume_reproduces_training(tmp_path, ds, cfg):
    """Two epochs, a checkpoint, one resumed epoch: as three straight epochs."""
    train_idx, _, _ = split_indices(cfg, ds)

    straight = init_state(cfg, ds)
    warmup(straight, ds, cfg, train_idx)
    for _ in range(3):
        train_epoch(straight, ds, cfg, train_idx)

    stopped = init_state(cfg, ds)
    warmup(stopped, ds, cfg, train_idx)
    for _ in range(2):
        train_epoch(stopped, ds, cfg, train_idx)
    path = tmp_path / "checkpoint.npz"
    save_state(stopped, cfg, str(path))
    resumed, cfg_back = load_state(str(path))
    assert cfg_back == cfg
    train_epoch(resumed, ds, cfg_back, train_idx)

    np.testing.assert_array_equal(straight.params.w_v, resumed.params.w_v)
    np.testing.assert_array_equal(straight.params.w_t, resumed.params.w_t)
    assert straight.theta == resumed.theta
    assert straight.epoch == resumed.epoch
    assert straight.history == resumed.history
    assert (straight.best_rsum, straight.best_epoch) == (resumed.best_rsum,
                                                          resumed.best_epoch)
    assert straight.clip_events == resumed.clip_events


class TestCheckpointing:
    @pytest.mark.parametrize("optimizer", ["sgd", "adam"])
    def test_resume_reproduces_training(self, tmp_path, noisy_ds, optimizer):
        cfg = TrainConfig(seed=1, warmup_epochs=1, train_epochs=3,
                          lr_decay_epoch=2, batch_size=32, optimizer=optimizer)
        assert_resume_reproduces_training(tmp_path, noisy_ds, cfg)

    def test_numpy_valued_config_checkpoints_and_resumes(self, tmp_path, noisy_ds):
        cfg = TrainConfig(seed=np.int64(1), warmup_epochs=np.int64(1),
                          train_epochs=np.int64(3), lr_decay_epoch=np.int64(2),
                          batch_size=np.int64(32), lr_model=np.float64(2e-4),
                          rho=np.float64(0.1), lam=np.float64(0.01))
        assert cfg == TrainConfig(seed=1, warmup_epochs=1, train_epochs=3,
                                  lr_decay_epoch=2, batch_size=32)
        assert type(cfg.seed) is int and type(cfg.lr_model) is float
        assert_resume_reproduces_training(tmp_path, noisy_ds, cfg)

    def test_adam_state_round_trips(self, tmp_path, noisy_ds):
        cfg = TrainConfig(seed=2, optimizer="adam", warmup_epochs=1,
                          train_epochs=1, batch_size=32)
        train_idx, _, _ = split_indices(cfg, noisy_ds)
        state = init_state(cfg, noisy_ds)
        warmup(state, noisy_ds, cfg, train_idx)
        path = tmp_path / "adam.npz"
        save_state(state, cfg, str(path))
        back, _ = load_state(str(path))
        assert back.adam is not None
        np.testing.assert_array_equal(back.adam.m_v, state.adam.m_v)
        assert back.adam.step == state.adam.step

    def test_rejects_unknown_version(self, tmp_path, noisy_ds):
        cfg = TrainConfig(seed=0)
        state = init_state(cfg, noisy_ds)
        path = tmp_path / "bad.npz"
        save_state(state, cfg, str(path))
        data = dict(np.load(str(path), allow_pickle=False))
        data["version"] = np.int64(99)
        np.savez(str(path), **data)
        with pytest.raises(ValueError, match="version"):
            load_state(str(path))

    def test_rejects_config_with_missing_field(self, tmp_path, noisy_ds):
        cfg = TrainConfig(seed=0)
        path = tmp_path / "other.npz"
        save_state(init_state(cfg, noisy_ds), cfg, str(path))
        data = dict(np.load(str(path), allow_pickle=False))
        config = json.loads(str(data["config"][()]))
        del config["rho"]
        data["config"] = np.array(json.dumps(config))
        np.savez(str(path), **data)
        with pytest.raises(ValueError, match="missing keys \\['rho'\\]"):
            load_state(str(path))

    def test_rejects_missing_entry(self, tmp_path, noisy_ds):
        cfg = TrainConfig(seed=0, optimizer="adam")
        path = tmp_path / "partial.npz"
        save_state(init_state(cfg, noisy_ds), cfg, str(path))
        data = dict(np.load(str(path), allow_pickle=False))
        del data["adam_step"]
        np.savez(str(path), **data)
        with pytest.raises(ValueError, match="'adam_step'"):
            load_state(str(path))

    def test_damaged_archive_raises_value_error(self, tmp_path, noisy_ds):
        cfg = TrainConfig(seed=0, optimizer="adam")
        path = tmp_path / "damaged.npz"
        save_state(init_state(cfg, noisy_ds), cfg, str(path))
        raw = path.read_bytes()
        path.write_bytes(raw[:len(raw) // 2])
        with pytest.raises(ValueError, match="not a zip archive"):
            load_state(str(path))
        # a flipped byte either lands in a field nobody checks or is reported
        # as a ValueError, never as another exception
        for position in range(0, len(raw), 53):
            flipped = bytearray(raw)
            flipped[position] ^= 0xFF
            path.write_bytes(bytes(flipped))
            try:
                load_state(str(path))
            except ValueError:
                pass
