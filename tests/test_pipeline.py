"""Training-loop tests: warm-up behavior, identification, epoch mechanics,
checkpoint resumability, and run-level determinism."""

import copy
import dataclasses
import functools
import json
import os
import subprocess
import sys
import tempfile
import tracemalloc
import warnings
from operator import attrgetter
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import rematch.encoder as enc
import rematch.pipeline as pl
import rematch.transport as transport
from rematch.costs import CostNetParams, cost_grads, cost_net_step, reconstruct_pairs
from rematch.data import identification_score, make_benchmark
from rematch.losses import matching_probs, rematch_loss, triplet_loss_batch, warmup_loss
from rematch.mixture import partition
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

from pinned import DETERMINISM, DETERMINISM_DATA, PINS, assert_pinned

SMALL = dict(warmup_epochs=2, train_epochs=2, lr_decay_epoch=3, batch_size=32)


# at least one out-of-bounds value for every TrainConfig field
BAD_SETTINGS = [
    ("warmup_epochs", -3), ("warmup_epochs", 1.0), ("train_epochs", 0),
    ("train_epochs", -1), ("lr_decay_epoch", 0), ("batch_size", 1),
    ("batch_size", True), ("alpha", -1), ("alpha", float("nan")),
    ("tau", 0), ("tau", float("inf")), ("eps", 0), ("eps", 0.5),
    ("rho", -0.1), ("rho", 2), ("rho", False), ("lam", 0), ("lam", float("nan")),
    ("reserve_ratio", 0), ("reserve_ratio", 2), ("threshold", -0.5),
    ("threshold", 2), ("lr_model", float("nan")), ("lr_model", 0),
    ("lr_cost", float("inf")), ("lr_cost", -1e-6), ("seed", -1),
    ("seed", "0"), ("embed_dim", 1), ("rce_weight", -1),
    ("rce_weight", "1"), ("mode", "other"), ("cost_mode", "l2"),
    ("mask_positives", 1), ("rematch_variant", "js"), ("optimizer", "rmsprop"),
    ("optimizer", None),
]

# each TrainConfig field that a library function also takes: the name of the
# function's argument, and a call that passes it a value
LIBRARY_ARGUMENTS = {
    "tau": ("tau", lambda v: matching_probs(np.eye(3), v)),
    "alpha": ("alpha", lambda v: triplet_loss_batch(np.eye(3), v)),
    "eps": ("eps", lambda v: warmup_loss(np.eye(3), 0.1, eps=v)),
    "rce_weight": ("rce_weight", lambda v: warmup_loss(np.eye(3), 0.1, rce_weight=v)),
    "threshold": ("threshold", lambda v: partition([0.2, 0.8], threshold=v)),
    "reserve_ratio": ("reserve_ratio",
                      lambda v: reconstruct_pairs(np.ones((4, 3)), np.ones((4, 3)), v, 0)),
    "lr_cost": ("lr", lambda v: cost_net_step(CostNetParams(), np.zeros(2), lr=v)),
    "embed_dim": ("d", lambda v: enc.init_params(3, 3, v, 0)),
    "rho": ("rho", lambda v: transport.partial_ot(np.zeros((2, 2)), [0.5, 0.5], [0.5, 0.5],
                                                  rho=v, cfg=SinkhornConfig(lam=0.1))),
    "lam": ("lam", lambda v: SinkhornConfig(lam=v)),
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


class TestWarmup:
    def test_zero_epochs_only_touch_the_counter(self, clean_ds):
        cfg = TrainConfig(seed=0, warmup_epochs=0)
        state = init_state(cfg, clean_ds)
        before_v = state.params.w_v.copy()
        warmup(state, clean_ds, cfg)
        assert state.epoch == 0
        np.testing.assert_array_equal(state.params.w_v, before_v)

    def test_beats_random_ranking_on_clean_data(self, clean_ds):
        cfg = TrainConfig(seed=0, warmup_epochs=5)
        _, val_idx, _ = split_indices(cfg, clean_ds)
        state = init_state(cfg, clean_ds)
        assert warmup(state, clean_ds, cfg) is state
        metrics = evaluate(state.params, clean_ds, val_idx)
        baseline = random_ranking_rsum(val_idx.size)
        assert metrics["r1_i2t"] > 100.0 / val_idx.size
        assert metrics["rsum"] > baseline

    def test_batches_hold_at_least_two_pairs(self):
        rng = np.random.default_rng(0)
        assert pl._batches(np.array([7]), 4, rng) == []
        assert [batch.size for batch in pl._batches(np.arange(9), 4, rng)] == [4, 5]
        assert [batch.size for batch in pl._batches(np.arange(8), 4, rng)] == [4, 4]
        assert [batch.size for batch in pl._batches(np.arange(6), 4, rng)] == [4, 2]

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
        # not epoch-to-epoch batch composition; each of the six steps is a
        # warm-up epoch
        cfg = TrainConfig(seed=0, warmup_epochs=6)
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
            train_epoch(state, clean_ds, cfg)
            trace.append(frozen_loss())
        assert [record["phase"] for record in state.history] == ["warmup"] * 6
        assert all(later <= earlier + 1e-9
                   for earlier, later in zip(trace, trace[1:]))


class TestPerSampleLosses:
    def test_reproducible_given_seeds(self, noisy_ds):
        cfg = TrainConfig(seed=0, warmup_epochs=2)
        train_idx, _, _ = split_indices(cfg, noisy_ds)
        state = init_state(cfg, noisy_ds)
        warmup(state, noisy_ds, cfg)
        first = per_sample_losses(state, noisy_ds, cfg, train_idx)
        second = per_sample_losses(state, noisy_ds, cfg, train_idx)
        np.testing.assert_array_equal(first, second)

    def test_mismatched_pairs_have_higher_losses_after_warmup(self, noisy_ds):
        cfg = TrainConfig(seed=0)
        train_idx, _, _ = split_indices(cfg, noisy_ds)
        state = init_state(cfg, noisy_ds)
        warmup(state, noisy_ds, cfg)
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
        warmup(state, noisy_ds, cfg)
        _, mismatched_pos, _ = pl._identify(state, noisy_ds, cfg, train_idx)
        score = identification_score(mismatched_pos, noisy_ds.matched[train_idx])
        assert score["f1"] >= 0.8
        assert score["f1"] == pytest.approx(0.9198606271777003, abs=1e-9)

    @pytest.mark.parametrize("mode", ["rematch", "discard"])
    def test_each_fit_starts_from_the_previous_record(self, determinism_ds, mode):
        cfg = TrainConfig(mode=mode, **DETERMINISM)
        state = init_state(cfg, determinism_ds)
        warmup(state, determinism_ds, cfg)
        with mock.patch.object(pl, "fit_bmm", wraps=pl.fit_bmm) as fit:
            # the first training epoch reads a warm-up record, which has no fit
            train_epoch(state, determinism_ds, cfg)
            assert fit.call_args.kwargs["init"] is None
            train_epoch(state, determinism_ds, cfg)
            init = fit.call_args.kwargs["init"]
            previous = state.history[-2]["bmm"]
            assert (init.alpha_lo, init.beta_lo, init.alpha_hi, init.beta_hi,
                    init.weight_hi) == tuple(previous[key] for key in pl._BMM_PARAMS)
            assert not init.degenerate
            # a degenerate fit records None, and the next fit starts cold
            state.history[-1]["bmm"] = None
            train_epoch(state, determinism_ds, cfg)
            assert fit.call_args.kwargs["init"] is None
        assert fit.call_count == 3


def steady_peaks(phase: str, mode: str, mrate: float = 0.6) -> list:
    """The ``tracemalloc`` peak of each call of ``pl.<phase>``, above the memory
    traced as it starts, over the epochs after the first training epoch of a
    short adam run (n = 500, 5 warm-up and 4 training epochs, batch 128)."""
    ds = make_benchmark(n=500, classes=10, noise=0.1, mrate=mrate, rng_seed=0)
    cfg = TrainConfig(seed=0, mode=mode, optimizer="adam", warmup_epochs=5,
                      train_epochs=4, lr_decay_epoch=7, batch_size=128)
    state = init_state(cfg, ds)
    while state.epoch <= cfg.warmup_epochs:
        train_epoch(state, ds, cfg)
    peaks, call = [], getattr(pl, phase)

    def measured(*args):
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        value = call(*args)
        peaks.append(tracemalloc.get_traced_memory()[1] - base)
        return value

    with mock.patch.object(pl, phase, measured):
        tracemalloc.start()
        try:
            while state.epoch < cfg.total_epochs:
                train_epoch(state, ds, cfg)
        finally:
            tracemalloc.stop()
    return peaks


# numpy's Python-level wrappers around its reductions, views and index helpers;
# the errstate context manager (numpy/_core/_ufunc_config.py) may run
WRAPPER_MODULES = ("numpy/_core/_methods.py", "numpy/_core/fromnumeric.py",
                   "numpy/lib/_twodim_base_impl.py", "numpy/lib/_index_tricks_impl.py")
BATCHES = pl._batches.__code__  # shuffles with numpy's Generator


def wrapper_calls(call) -> list:
    """``module:function`` of every Python-level call into ``WRAPPER_MODULES``
    that ``call()`` makes, seen by ``sys.setprofile``. The shuffle that orders a
    pass's batches is not counted: numpy's Generator calls ``np.ndim`` from
    its compiled code, which the profiler cannot tell from a library call."""
    calls = []

    def profile(frame, event, arg):
        if event != "call":
            return
        path, name = frame.f_code.co_filename.replace(os.sep, "/"), frame.f_code.co_name
        shuffle = name in ("ndim", "_ndim_dispatcher") and frame.f_back.f_code is BATCHES
        if path.endswith(WRAPPER_MODULES) and not shuffle:
            calls.append(f"{path.rpartition('/')[2]}:{name}")

    sys.setprofile(profile)
    try:
        call()
    finally:
        sys.setprofile(None)
    return calls


class TestWrapperFreeKernels:
    """A steady training step and a steady identification pass call numpy's
    ufuncs and array methods directly, never its Python-level wrappers: each
    wrapper costs a few Python calls, and at batch 128 a step's arithmetic is
    cheaper than the Python around it. The rematch step and the transport solve
    are outside this guard."""

    @staticmethod
    def trained(mode: str, optimizer: str):
        """A run through its first training epoch, which records a mixture fit
        in an identifying mode, and its training rows."""
        ds = make_benchmark(n=200, classes=5, noise=0.1, mrate=0.4, rng_seed=0)
        cfg = TrainConfig(seed=0, mode=mode, optimizer=optimizer, warmup_epochs=1,
                          train_epochs=2, lr_decay_epoch=3, batch_size=32)
        state = init_state(cfg, ds)
        while state.epoch <= pl._warm_epochs(cfg):
            train_epoch(state, ds, cfg)
        return state, ds, cfg, split_indices(cfg, ds)[0]

    @pytest.mark.parametrize("mode,optimizer", [("naive", "sgd"), ("discard", "adam")])
    @pytest.mark.parametrize("objective", ["warmup", "triplet"])
    def test_a_steady_step_calls_no_numpy_wrapper(self, mode, optimizer, objective):
        state, ds, cfg, train_idx = self.trained(mode, optimizer)
        loss = {"warmup": lambda s: warmup_loss(s, cfg.tau, cfg.eps, cfg.rce_weight,
                                                work=state.work),
                "triplet": lambda s: triplet_loss_batch(s, cfg.alpha, work=state.work)}[objective]
        step = functools.partial(pl._step, state, ds, cfg, [(train_idx[:cfg.batch_size], loss)],
                                 cfg.lr_model)
        step()
        assert wrapper_calls(step) == []

    def test_a_steady_warm_started_identification_calls_no_numpy_wrapper(self):
        state, ds, cfg, train_idx = self.trained("discard", "adam")
        assert state.history[-1]["bmm"] is not None  # the fit the pass starts from
        identify = functools.partial(pl._identify, state, ds, cfg, train_idx)
        identify()
        assert wrapper_calls(identify) == []


class TestTrainEpoch:
    def test_perfect_split_reduces_to_triplet_training(self):
        # with zero feature noise every pair's hinge loss is identical, the
        # mixture fit falls back, and the mismatched subset comes out empty,
        # so the epoch runs on the ranking term alone
        ds = make_benchmark(n=120, classes=2, noise=0.0, mrate=0.0, rng_seed=1)
        cfg = TrainConfig(seed=0, warmup_epochs=0, batch_size=24)
        train_idx, _, _ = split_indices(cfg, ds)
        state = init_state(cfg, ds)
        assert train_epoch(state, ds, cfg) is state
        record = state.history[-1]
        assert record["partition"]["mismatched"] == 0
        assert record["partition"]["matched"] == train_idx.size
        assert record["bmm"] is None

    def test_finished_run_refuses_another_epoch(self, determinism_ds):
        cfg = TrainConfig(mode="discard", **dict(DETERMINISM, warmup_epochs=1,
                                                 train_epochs=1))
        _, state = run_experiment(cfg, determinism_ds, return_state=True)
        params = state.params.copy()
        with pytest.raises(ValueError, match="epoch 2 of 2 total epochs"):
            train_epoch(state, determinism_ds, cfg)
        warmup(state, determinism_ds, cfg)
        assert state.epoch == 2 and len(state.history) == 2
        np.testing.assert_array_equal(state.params.w_v, params.w_v)

    def test_steps_reuse_the_workspace(self, noisy_ds):
        # two n x n matrices at batch 128: once the first epochs have sized
        # the workspace, a step allocates no n x n matrix of its own. A
        # rematch step (cost map, partial transport, normalization and the
        # rematch loss) peaked at 1,395 KiB before its matrices moved into the
        # workspace, and at 223 KiB after
        cfg = TrainConfig(seed=0, mode="rematch", optimizer="adam", warmup_epochs=1,
                          train_epochs=1, batch_size=128)
        state = init_state(cfg, noisy_ds)
        warmup(state, noisy_ds, cfg)
        train_epoch(state, noisy_ds, cfg)
        batch = split_indices(cfg, noisy_ds)[0][:128]
        solver = SinkhornConfig(lam=cfg.lam, max_iter=pl._OT_MAX_ITER, tol=pl._OT_TOL)

        def rematch(s):
            refined_v2t, refined_t2v, plan = pl.refine_batch(state, s, cfg, solver)
            assert plan.converged
            return pl.rematch_loss(refined_v2t, refined_t2v, s, cfg.tau,
                                   cfg.rematch_variant, work=state.work)

        # the epoch's mismatched batches held fewer than 128 pairs
        pl._step(state, noisy_ds, cfg, [(batch, rematch)], 1e-4)

        losses = {
            "warmup": lambda s: warmup_loss(s, cfg.tau, cfg.eps, cfg.rce_weight,
                                            work=state.work),
            "triplet": lambda s: triplet_loss_batch(s, cfg.alpha, work=state.work),
            "rematch": rematch,
        }
        for name, loss in losses.items():
            tracemalloc.start()
            try:
                pl._step(state, noisy_ds, cfg, [(batch, loss)], 1e-4)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 2 * 128 * 128 * 8, f"{name} step peaked at {peak} bytes"

    @pytest.mark.parametrize("mode,bound", [("rematch", 256 * 1024), ("discard", 192 * 1024)])
    def test_steady_epochs_make_no_fresh_step_matrix(self, mode, bound):
        # The largest peak of an encoder update under tracemalloc, over the epochs
        # after the first training epoch, at batch 128: a 128 x 128 float64 matrix
        # takes 128 KiB, and on this dataset the rematch term's batches are full
        # too. On a 2-vCPU x86-64 host the updates peaked at 199,985 B (rematch)
        # and 125,544 B (discard); a copy of the similarity matrix in the rematch
        # term lifted rematch to 330,945 B, and a fresh similarity matrix per term
        # lifted rematch to 450,320 B and discard to 256,616 B
        peaks = steady_peaks("_step", mode)
        assert peaks and max(peaks) < bound, max(peaks)

    def test_steady_cost_map_updates_make_no_fresh_batch_matrix(self):
        # The largest peak of a cost-map update under tracemalloc, over the
        # epochs after the first training epoch of the run above. It reads
        # only the rebuilt batch's supervised cells: on a 2-vCPU x86-64 host
        # its six updates peaked at 131,328-134,192 B; a dense 128 x 128
        # supervision matrix (128 KiB) lifted them to 246,048-248,912 B
        peaks = steady_peaks("_cost_update", "rematch")
        assert peaks and max(peaks) < 192 * 1024, max(peaks)

    def test_steady_cost_gaps_embed_in_the_run_workspace(self):
        # The largest peak of an epoch's cost gap under tracemalloc, over the
        # epochs after the first training epoch of a run at mrate 0.4. It
        # embeds every training row: on a 2-vCPU x86-64 host it peaked at
        # 79,076 B with the rows, the embedding and its squares in the run
        # workspace (most of it numpy's iterator buffer for the row scaling),
        # at 284,148 B with fresh row copies and squares, and at 382,516 B
        # with the embedding in a fresh workspace too
        peaks = steady_peaks("_cost_gap", "rematch", mrate=0.4)
        assert peaks and max(peaks) < 128 * 1024, max(peaks)

    @pytest.mark.parametrize("mode", sorted(pl._MODES))
    def test_the_workspace_is_steady_after_the_first_training_epoch(self, mode):
        # every buffer a step, an identification pass or a transport solve
        # uses (the stacked embedding and its backward scratch too) exists
        # once the first training epoch ends, at its final size. On this
        # dataset a later discard epoch trains a batch of batch_size + 1 pairs
        # (a trailing singleton folded in), which the buffers have room for
        ds = make_benchmark(n=500, classes=10, noise=0.1, mrate=0.6, rng_seed=0)
        cfg = TrainConfig(mode=mode, seed=0, optimizer="adam", warmup_epochs=15,
                          train_epochs=25, lr_decay_epoch=20)
        state = init_state(cfg, ds)
        while state.epoch <= pl._warm_epochs(cfg):
            train_epoch(state, ds, cfg)
        allocations, buffers = state.work.allocations, dict(state.work._flat)
        assert {"s", "embed", "grad_unit", "unit_scratch"} <= buffers.keys()
        while state.epoch < cfg.total_epochs:
            train_epoch(state, ds, cfg)
            assert state.work.allocations == allocations, f"epoch {state.epoch}"
            assert state.work._flat.keys() == buffers.keys()
            assert all(state.work._flat[name] is buffers[name] for name in buffers)

    @pytest.mark.skipif(sys.platform != "linux", reason="counts glibc page faults")
    @pytest.mark.parametrize("mode,warm,train,decay", [("rematch", 2, 4, 5),
                                                       ("discard", 15, 25, 20)])
    def test_a_second_run_takes_few_page_faults(self, mode, warm, train, decay):
        # glibc hands freed memory at the top of its heap back to the system,
        # and the next allocation faults it in again; the run workspace keeps
        # every n x n matrix of a step instead, the rematch step's included.
        # The count starts after the second run's first epoch, which builds
        # that run's workspace and may fault in what glibc trimmed when the
        # first run ended (up to ~630 faults, by heap layout). A rematch run
        # builds the rest in its first train epoch: the cost, transport and
        # normalization buffers and the hinge scratch, about 320 pages, which
        # fault in when glibc trimmed the first run's. On a 2-vCPU x86-64 Linux
        # host, over eight heap layouts, the counted epochs took 12-407 minor
        # faults in rematch mode, nearly all in that epoch, and 0-116 in
        # discard mode. No epoch builds a similarity matrix of the training
        # rows (1 MB) any more; with the rematch step's matrices fresh per
        # call, rematch took 2,664-3,347 and discard, with all of them fresh,
        # 5,597-10,739
        probe = f"""if True:
            import resource
            import rematch.pipeline as pl
            from rematch.data import make_benchmark
            ds = make_benchmark(n=500, classes=10, noise=0.1, mrate=0.6, rng_seed=0)
            cfg = pl.TrainConfig(mode="{mode}", seed=0, optimizer="adam", batch_size=128,
                                 warmup_epochs={warm}, train_epochs={train},
                                 lr_decay_epoch={decay})
            faults, epoch = [], pl._epoch
            def counted(*args):
                before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
                record = epoch(*args)
                faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
                return record
            pl._epoch = counted
            for _ in range(2):
                pl.run_experiment(cfg, ds)
            print(sum(faults[cfg.total_epochs + 1:]))
        """
        src = os.path.join(os.path.dirname(pl.__file__), os.pardir)
        env = {**os.environ, "PYTHONPATH": os.path.abspath(src), "OPENBLAS_NUM_THREADS": "1",
               "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
        done = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                              text=True, timeout=120, check=True)
        assert int(done.stdout) < 500, f"the counted epochs took {done.stdout.strip()} minor faults"

    def test_epoch_records_required_blocks(self, noisy_ds):
        # every identifying epoch records its fit; only rematch epochs solve
        cfg = TrainConfig(seed=0, warmup_epochs=2, batch_size=64, mode="discard")
        state = init_state(cfg, noisy_ds)
        warmup(state, noisy_ds, cfg)
        train_epoch(state, noisy_ds, cfg)
        record = state.history[-1]
        for key in ("bmm", "partition", "identification"):
            assert key in record
        assert record["bmm"] is not None
        for key in ("transport", "cost_gap", "cost_params"):
            assert key not in record

        cfg = dataclasses.replace(cfg, mode="rematch")
        state = init_state(cfg, noisy_ds)
        warmup(state, noisy_ds, cfg)
        train_epoch(state, noisy_ds, cfg)
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
        state = init_state(cfg, noisy_ds)
        warmup(state, noisy_ds, cfg)
        theta_before = state.theta
        train_epoch(state, noisy_ds, cfg)
        assert state.theta != theta_before

    @given(n=st.integers(2, 129), seed=st.integers(0, 2**32 - 1),
           reserve_ratio=st.floats(0.01, 1.0), lr_cost=st.sampled_from([2e-6, 1.0, 100.0]),
           w=st.floats(-50, 50), b=st.floats(-50, 50))
    # a w gradient that cancels: a step of 3.5e-9 from terms whose absolute
    # sum times lr is 9.4e-6, with summation orders 3.9e-22 apart
    @example(n=44, seed=44, reserve_ratio=0.5, lr_cost=2e-6, w=0.0, b=0.0)
    @settings(max_examples=100, deadline=None)
    def test_cost_update_scores_only_the_supervised_cells(self, noisy_ds, n, seed,
                                                           reserve_ratio, lr_cost, w, b):
        # the step embeds only the rebuilt batch's true pairs; the full
        # similarity matrix read at those cells takes the same step up to
        # rounding. Both sides sum the k supervised terms in row order; the
        # bound still allows for two orders, each off by at most
        # gamma(k - 1) * sum|terms| (Higham, Accuracy
        # and Stability of Numerical Algorithms, 2nd ed., section 4.2), from
        # similarities that are dot products of unit embeddings, each within
        # gamma(dim) of exact (section 3.1), which moves a term by at most
        # (1 + |w| / 4) times as much; the product with lr and the final
        # subtraction round once more each
        rng = np.random.default_rng(seed)
        cfg = TrainConfig(seed=0, reserve_ratio=reserve_ratio, lr_cost=lr_cost)
        pool = rng.permutation(len(noisy_ds.v_feats))
        matched_batch, mismatched_idx = pool[:n], pool[n:n + int(rng.integers(0, n + 1))]
        state = init_state(cfg, noisy_ds)
        state.params = enc.EncoderParams(rng.normal(size=state.params.w_v.shape),
                                         rng.normal(size=state.params.w_t.shape))
        state.theta = theta = CostNetParams(w, b)
        v_feats, (rows, cols) = reconstruct_pairs(noisy_ds.v_feats[matched_batch],
                                                  noisy_ds.v_feats[mismatched_idx],
                                                  reserve_ratio, np.random.default_rng(seed))
        sims, _ = enc.similarity(state.params, v_feats, noisy_ds.t_feats[matched_batch])
        sims = sims[rows, cols]
        want, want_clipped = cost_net_step(state.theta, sims, lr_cost)
        state.rng = np.random.default_rng(seed)
        got, clipped = pl._cost_update(state, noisy_ds, cfg, matched_batch, mismatched_idx)
        assert clipped == want_clipped

        unit = np.finfo(float).eps / 2

        def gamma(m):
            return m * unit / (1 - m * unit)

        k, dim = rows.size, state.params.w_v.shape[1]
        sims_moved = 2 * k * gamma(dim) * (1 + abs(w) / 4)
        d_w, d_b = cost_grads(sims, theta)
        for new, reference, terms in ((got.w, want.w, d_w), (got.b, want.b, d_b)):
            summed = 2 * gamma(k + 1) * np.abs(terms).sum() + sims_moved
            assert abs(new - reference) <= (lr_cost * summed
                                            + unit * (abs(new) + abs(reference)))

    def test_cosine_cost_is_one_minus_the_similarity(self, noisy_ds):
        # the no-cost ablation arm: the learned map never prices a solve
        cfg = TrainConfig(seed=0, cost_mode="cosine")
        state = init_state(cfg, noisy_ds)
        s = np.random.default_rng(4).uniform(-1, 1, (5, 5))
        for got in (pl._cost(state, cfg, s), pl._cost(state, cfg, s, state.work)):
            np.testing.assert_array_equal(got, 1.0 - s)

    @pytest.mark.parametrize("cost_mode", ["learned", "cosine"])
    @pytest.mark.parametrize("shape", [(), (3,), (3, 3)])
    @pytest.mark.parametrize("fresh", [True, False], ids=["fresh", "workspace"])
    def test_cost_has_the_shape_of_the_similarities(self, cost_mode, shape, fresh):
        # as in cost_forward, a vector or a scalar is not broadcast into a
        # matrix, in a workspace or out of one
        cfg = TrainConfig(seed=0, cost_mode=cost_mode)
        state = pl.RunState(params=None, rng=None, epoch=0, theta=CostNetParams(-0.7, 0.4))
        s = np.random.default_rng(3).uniform(-1, 1, shape)
        got = pl._cost(state, cfg, s) if fresh else pl._cost(state, cfg, s, state.work)
        assert np.shape(got) == s.shape
        np.testing.assert_array_equal(np.ravel(got), pl._cost(state, cfg, s.reshape(1, -1))[0])

    @given(n=st.integers(2, 40), data=st.data(),
           reserve_ratio=st.floats(0.01, 1.0))
    @settings(max_examples=100, deadline=None)
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
        (images, (rows, cols)), = rebuilt
        needed = n - int(np.floor(reserve_ratio * n + 0.5))
        substitutes = min(needed, pool_size)
        assert rows.size == n - substitutes
        assert np.unique(cols).size == n - substitutes
        unsupervised = np.delete(images, rows, axis=0)
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

    @pytest.mark.parametrize("mode", sorted(pl._MODES))
    def test_a_run_builds_one_workspace(self, mode, monkeypatch):
        # the run's workspace serves every step, identification pass and
        # solve; the validation and test splits are scored in fresh arrays
        made = []
        init = pl._Workspace.__init__

        def counted(work):
            made.append(work)
            init(work)

        monkeypatch.setattr(pl._Workspace, "__init__", counted)
        ds = make_benchmark(n=200, classes=5, noise=0.1, mrate=0.4, rng_seed=0)
        run_experiment(TrainConfig(seed=0, mode=mode, **SMALL), ds)
        assert len(made) == 1

    def test_every_clamped_cost_update_is_counted(self, determinism_ds):
        # a huge cost-map rate drives the slope and offset into their clamp
        clamped = []
        step = pl.costs_mod.cost_net_step

        def spy(*args):
            result = step(*args)
            clamped.append(result[1])
            return result

        with mock.patch.object(pl.costs_mod, "cost_net_step", spy):
            payload = run_experiment(TrainConfig(mode="rematch", lr_cost=1e3, **DETERMINISM),
                                     determinism_ds)
        assert sum(clamped) > 0
        assert payload["cost_clip_events"] == sum(clamped)

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
                        rho=1.0, rematch_variant="kl", **SMALL), ds)
        assert payload["config"]["cost_mode"] == "cosine"
        assert payload["config"]["mask_positives"] is False
        assert payload["config"]["rho"] == 1.0

    @pytest.mark.parametrize("mode,best,test_rsum,last_loss", [
        ("rematch", {"epoch": 4, "val_rsum": 337.5}, 240.0, 17.668781242813413),
        ("naive", {"epoch": 5, "val_rsum": 331.25}, 190.0, 17.041659996871974),
        ("discard", {"epoch": 4, "val_rsum": 337.5}, 240.0, 15.319442462107688),
    ])
    def test_pinned_trajectory_per_mode(self, determinism_ds, mode, best,
                                        test_rsum, last_loss):
        # regression constants, frozen at first measurement; the rematch and
        # discard losses were re-recorded when the mixture fit began to start
        # from the previous epoch's fit (their best and test figures held)
        payload = run_experiment(TrainConfig(mode=mode, **DETERMINISM),
                                 determinism_ds)
        assert payload["best"] == pytest.approx(best, abs=1e-9)
        assert payload["test"]["rsum"] == pytest.approx(test_rsum, abs=1e-9)
        assert payload["epochs"][-1]["train_loss"] == pytest.approx(last_loss,
                                                                    abs=1e-9)

    # payloads without "timing", byte for byte against their fixtures under
    # tests/pins (pinned.py says when and how to re-record them)
    @pytest.mark.parametrize("mode", ["rematch", "naive", "discard"])
    def test_pinned_payload_bytes_per_mode(self, mode):
        assert_pinned(f"{mode}-adam", PINS[f"{mode}-adam"]())

    # the same payloads with plain SGD, the default optimizer
    @pytest.mark.parametrize("mode", ["rematch", "naive", "discard"])
    def test_pinned_sgd_payload_bytes_per_mode(self, mode):
        assert_pinned(f"{mode}-sgd", PINS[f"{mode}-sgd"]())

    # a batch-128 rematch run: its solves have 129 free columns, so their
    # Newton directions come from CG (the pins above stay below
    # transport._CG_MIN_DIM)
    def test_pinned_payload_bytes_at_batch_128(self, monkeypatch):
        cg_directions = []
        schur_cg = transport._schur_cg
        monkeypatch.setattr(transport, "_schur_cg",
                            lambda *args: cg_directions.append(1) or schur_cg(*args))
        text = PINS["rematch-batch128"]()
        assert cg_directions
        assert_pinned("rematch-batch128", text)

    def test_an_unconverged_plan_is_counted_and_never_normalized(self, determinism_ds,
                                                                 monkeypatch):
        # every solve reports no convergence: the epoch counts each skip, no
        # plan reaches normalization, and the rematch term adds nothing, so
        # with the triplet term zeroed too plain SGD leaves the encoder as it
        # is; an epoch with no converged solve then stops the run, naming lam
        cfg = TrainConfig(mode="rematch", **dict(DETERMINISM, optimizer="sgd"))
        state = init_state(cfg, determinism_ds)
        warmup(state, determinism_ds, cfg)
        solve, solves = pl.partial_ot, []
        monkeypatch.setattr(pl, "partial_ot", lambda *args, **kwargs: solves.append(1) or
                            dataclasses.replace(solve(*args, **kwargs), converged=False))

        def unreachable(*args, **kwargs):
            raise AssertionError("an unconverged plan was normalized")

        monkeypatch.setattr(pl, "normalize_plan", unreachable)
        monkeypatch.setattr(pl, "triplet_loss_batch",
                            lambda s, alpha, work=None: (0.0, np.zeros_like(s)))
        params, epochs = state.params.copy(), len(state.history)
        with pytest.raises(ValueError) as excinfo:
            train_epoch(state, determinism_ds, cfg)
        assert solves
        assert str(excinfo.value) == (
            f"lam={cfg.lam!r}: no rematch solve of epoch {epochs + 1} converged "
            f"({len(solves)} tried); try a larger lam")
        assert len(state.history) == epochs
        np.testing.assert_array_equal(state.params.w_v, params.w_v)
        np.testing.assert_array_equal(state.params.w_t, params.w_t)

    @given(n=st.integers(2, 129), mask_positives=st.booleans(),
           rho=st.sampled_from([0.1, 1.0]), cost_mode=st.sampled_from(["learned", "cosine"]),
           seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_refined_alignments_pass_the_rematch_checks(self, n, mask_positives, rho,
                                                        cost_mode, seed):
        # the step hands refine_batch's output to rematch_loss, which rejects
        # what fails its checks; whatever the size, mask, budget and cost, that
        # output passes them, or the solve is unconverged and there is none
        rng = np.random.default_rng(seed)
        cfg = TrainConfig(mask_positives=mask_positives, rho=rho, cost_mode=cost_mode)
        state = pl.RunState(params=None, rng=rng, epoch=0,
                            theta=CostNetParams(rng.uniform(-5, 0), rng.uniform(-1, 1)))
        s = rng.uniform(-1, 1, (n, n))
        solver = SinkhornConfig(lam=cfg.lam, max_iter=pl._OT_MAX_ITER, tol=pl._OT_TOL)
        refined_v2t, refined_t2v, plan = pl.refine_batch(state, s, cfg, solver)
        if not plan.converged:
            assert refined_v2t is None and refined_t2v is None
            return
        assert np.all(refined_v2t >= 0) and np.all(refined_t2v >= 0)
        assert np.abs(refined_v2t.sum(axis=1) - 1.0).max() <= 1e-6
        assert np.abs(refined_t2v.sum(axis=0) - 1.0).max() <= 1e-6
        value, grad = rematch_loss(refined_v2t, refined_t2v, s, cfg.tau, cfg.rematch_variant)
        assert np.isfinite(value) and np.all(np.isfinite(grad))

    def test_unconverged_plans_skip_the_rematch_term(self, determinism_ds,
                                                     monkeypatch):
        # one scaling sweep cannot meet the solver tolerance, so every solve is
        # unconverged, no step may train on its plan, and the first training
        # epoch stops the run
        def no_rematch_term(*args, **kwargs):
            raise AssertionError("rematch term computed from an unconverged plan")

        monkeypatch.setattr(pl, "rematch_loss", no_rematch_term)
        monkeypatch.setattr(pl, "_OT_MAX_ITER", 1)
        first = DETERMINISM["warmup_epochs"] + 1
        with pytest.raises(ValueError, match=rf"^lam=0\.01: no rematch solve of epoch "
                                             rf"{first} converged \(\d+ tried\)"):
            run_experiment(TrainConfig(mode="rematch", **DETERMINISM), determinism_ds)

    @pytest.mark.parametrize("lam", [1e-8, 1e-300])
    def test_a_lam_too_small_to_converge_stops_the_run(self, lam):
        # both lie in lam's declared interval, yet every training-shaped solve
        # runs out of iterations: the run stops at its first training epoch
        # instead of training on without the rematch term, and warns of nothing
        cfg = TrainConfig(mode="rematch", seed=1, warmup_epochs=1, train_epochs=1,
                          lr_decay_epoch=2, batch_size=32, lam=lam)
        with pytest.raises(ValueError, match=rf"^lam={lam!r}: no rematch solve of epoch 2 "
                                             "converged"):
            run_experiment(cfg, make_benchmark(**PROPERTY_DATA))

    @pytest.mark.parametrize("mode", ["rematch", "naive", "discard"])
    def test_public_epochs_retrace_the_run(self, determinism_ds, mode):
        cfg = TrainConfig(mode=mode, **DETERMINISM)
        payload, run = run_experiment(cfg, determinism_ds, return_state=True)
        state = init_state(cfg, determinism_ds)
        warmup(state, determinism_ds, cfg)  # naive has no warm-up epochs
        while state.epoch < cfg.total_epochs:
            train_epoch(state, determinism_ds, cfg)
        assert state.history == payload["epochs"]
        assert (state.best_epoch, state.best_rsum) == (payload["best"]["epoch"],
                                                       payload["best"]["val_rsum"])
        assert_same_run(state, run)

    @pytest.mark.parametrize("mode", ["rematch", "naive", "discard"])
    @pytest.mark.parametrize("rewarm", [False, True], ids=["train_epoch", "warmup"])
    def test_resume_after_the_first_epoch_reproduces_the_run(
            self, tmp_path, determinism_ds, mode, rewarm):
        # epoch 1 is the first warm-up epoch of rematch and discard; after the
        # resume, warmup trains only the warm-up epochs the run has left
        cfg = TrainConfig(mode=mode, **DETERMINISM)
        _, run = run_experiment(cfg, determinism_ds, return_state=True)
        stopped = init_state(cfg, determinism_ds)
        train_epoch(stopped, determinism_ds, cfg)
        path = tmp_path / "epoch1.npz"
        save_state(stopped, cfg, str(path))
        resumed, cfg_back = load_state(str(path))
        if rewarm:
            warmup(resumed, determinism_ds, cfg_back)
        while resumed.epoch < cfg_back.total_epochs:
            train_epoch(resumed, determinism_ds, cfg_back)
        assert_same_run(resumed, run)

    @pytest.mark.parametrize("mode", ["rematch", "discard"])
    def test_warmup_records_carry_their_own_validation(self, determinism_ds,
                                                       mode):
        cfg = TrainConfig(mode=mode, **DETERMINISM)
        payload = run_experiment(cfg, determinism_ds)
        _, val_idx, _ = split_indices(cfg, determinism_ds)
        state = init_state(cfg, determinism_ds)
        records = [r for r in payload["epochs"] if r["phase"] == "warmup"]
        assert len(records) == cfg.warmup_epochs
        for record in records:
            train_epoch(state, determinism_ds, cfg)
            assert state.history[-1] == record
            assert record["val"] == evaluate(state.params, determinism_ds, val_idx)
        assert payload["best"]["epoch"] >= cfg.warmup_epochs

    def test_too_small_splits_rejected(self):
        # 5 validation rows: a stepped epoch must fail before it trains, not
        # at its validation with the weights already moved
        ds = make_benchmark(n=60, classes=3, noise=0.1, mrate=0.3, rng_seed=0)
        cfg = TrainConfig(seed=0, **SMALL)
        with pytest.raises(ValueError, match="splits"):
            run_experiment(cfg, ds)
        state = init_state(cfg, ds)
        with pytest.raises(ValueError, match="splits"):
            train_epoch(state, ds, cfg)
        np.testing.assert_array_equal(state.params.w_v, init_state(cfg, ds).params.w_v)


# a small run per mode and optimizer, checkpointed at epochs 0, 1 (the
# warm-up epoch) and 2 (the first training epoch); never at its end
PROPERTY_DATA = dict(n=120, classes=4, noise=0.1, mrate=0.4, rng_seed=5)
MISSING = object()
# values each kind of entry must not hold, as is or made from the saved value
BAD_VALUES = {
    pl._INT: [np.int64(-5), np.int64(-1), np.int64(10**9), np.float64(2.5), np.True_,
              np.array("3"), np.arange(2)],
    pl._REAL: [np.float64(np.nan), np.float64(np.inf), np.float64(-1e9), np.float64(1e9),
               np.array("0.5"), np.arange(2.0)],
    pl._TEXT: [np.array("not json"), np.array("null"), np.array("[]"), np.array("{}"),
               np.float64(1.0), np.array(["[]", "[]"])],
    pl._MATRIX: [lambda w: np.full_like(w, np.nan), lambda w: np.full_like(w, -np.inf),
                 lambda w: w[:, :-1], lambda w: np.hstack([w, w]), lambda w: w[0],
                 lambda w: w.astype(np.float32), lambda w: w.astype(np.int64),
                 lambda w: -np.abs(w) - 1.0, lambda w: np.float64(0.0)],
}
BAD_VALUES[pl._CONFIG] = BAD_VALUES[pl._TEXT] + [np.array(json.dumps({"rho": 0.1}))]
# what an entry saved only sometimes holds when it should be absent
SURPLUS = {pl._INT: np.int64(0), pl._MATRIX: np.zeros((32, 16))}


@functools.lru_cache(maxsize=None)
def property_checkpoint(mode: str, optimizer: str, epochs: int):
    ds = make_benchmark(**PROPERTY_DATA)
    cfg = TrainConfig(seed=1, mode=mode, optimizer=optimizer, warmup_epochs=1,
                      train_epochs=2, lr_decay_epoch=2, batch_size=32)
    state = init_state(cfg, ds)
    for _ in range(epochs):
        train_epoch(state, ds, cfg)
    with tempfile.TemporaryDirectory() as tmp:
        save_state(state, cfg, os.path.join(tmp, "state.npz"))
        with np.load(os.path.join(tmp, "state.npz"), allow_pickle=False) as archive:
            return ds, dict(archive)


@settings(max_examples=100, deadline=None)
@given(mode=st.sampled_from(sorted(pl._MODES)), optimizer=st.sampled_from(["sgd", "adam"]),
       epochs=st.integers(0, 2), entry=st.sampled_from(pl._ENTRIES), data=st.data())
def test_a_bad_entry_is_named_or_the_state_steps(mode, optimizer, epochs, entry, data):
    # every entry of the table, in every mode and optimizer: missing, surplus or
    # holding a bad value, it makes load_state raise ValueError naming it, or
    # the state it loads steps; no other exception may escape
    ds, saved = property_checkpoint(mode, optimizer, epochs)
    entries = dict(saved)
    if entry.name not in entries:
        entries[entry.name] = SURPLUS[entry.kind]
    else:
        bad_values = [MISSING, *BAD_VALUES[entry.kind]]
        # other rows are bad for every matrix but w_v and w_t, whose rows only the
        # dataset tells (the encoder rejects other widths at the first step)
        if entry.kind is pl._MATRIX and not entry.path.startswith("params."):
            bad_values.append(lambda w: w[:-1])
        bad = data.draw(st.sampled_from(bad_values))
        if bad is MISSING:
            del entries[entry.name]
        else:
            entries[entry.name] = bad(entries[entry.name]) if callable(bad) else bad
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "bad.npz")
        np.savez(path, **entries)
        try:
            state, cfg = load_state(path)
        except ValueError as exc:
            assert f"entry {entry.name!r}" in str(exc), str(exc)
            return
    train_epoch(state, ds, cfg)


def reference_update(weight, grad, lr, moments=None, step=0):
    """One projection's weights after an SGD step, or after Adam's ``step``-th
    with its ``moments`` updated in place, computed on its own."""
    if moments is not None:
        moment, second = moments
        moment *= pl._ADAM_BETA1
        moment += (1 - pl._ADAM_BETA1) * grad
        second *= pl._ADAM_BETA2
        second += (1 - pl._ADAM_BETA2) * grad * grad
        m_hat = moment / (1 - pl._ADAM_BETA1 ** step)
        v_hat = second / (1 - pl._ADAM_BETA2 ** step)
        grad = m_hat / (np.sqrt(v_hat) + pl._ADAM_EPS)
    return weight - lr * grad


class TestOptimizerStep:
    @pytest.mark.parametrize("optimizer", ["sgd", "adam"])
    def test_one_update_over_both_projections_equals_one_per_projection(self, optimizer):
        # projections of different heights, so the stacked blocks differ in size
        ds = make_benchmark(n=60, classes=3, noise=0.1, mrate=0.0, rng_seed=0, d_in_t=20)
        cfg = TrainConfig(optimizer=optimizer, **SMALL)
        state = init_state(cfg, ds)
        rng = np.random.default_rng(5)
        weights = [state.params.w_v.copy(), state.params.w_t.copy()]
        moments = [[np.zeros_like(w), np.zeros_like(w)] for w in weights]
        for step in (1, 2, 3):
            grads = [rng.normal(scale=10.0 ** -step, size=w.shape) for w in weights]
            pl._apply_update(state, cfg, np.concatenate(grads), lr=0.01)
            weights = [reference_update(w, g, 0.01, m if optimizer == "adam" else None, step)
                       for w, g, m in zip(weights, grads, moments)]
            assert state.params.w_v.tobytes() == weights[0].tobytes()
            assert state.params.w_t.tobytes() == weights[1].tobytes()
            if optimizer == "adam":
                assert state.adam.step == step
                for name, moment in zip(("m.w_v", "v.w_v", "m.w_t", "v.w_t"), sum(moments, [])):
                    assert attrgetter(name)(state.adam).tobytes() == moment.tobytes(), name

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
                           match=f"^non-finite gradient in the {projection} projection "
                                 "in epoch 1$"):
            pl._apply_update(state, cfg, np.concatenate(grads), lr=0.1)
        np.testing.assert_array_equal(state.params.w_v, before.w_v)
        np.testing.assert_array_equal(state.params.w_t, before.w_t)
        if optimizer == "adam":
            assert state.adam.step == 0

    @pytest.mark.parametrize("mode", ["rematch", "discard"])
    @pytest.mark.parametrize("setting", [{"tau": 1e-300}, {"rce_weight": 1e300}])
    def test_an_overflowing_update_names_the_projection(self, mode, setting):
        # both settings lie in their declared intervals; the first overflow of
        # such a run is the Adam second moment's grad * grad
        ds = make_benchmark(n=120, classes=5, noise=0.1, mrate=0.4, rng_seed=0)
        cfg = TrainConfig(mode=mode, seed=0, optimizer="adam", warmup_epochs=1,
                          train_epochs=2, lr_decay_epoch=3, **setting)
        with pytest.raises(FloatingPointError, match="^the visual projection's update "
                                                     "failed in epoch 1: overflow encountered"):
            run_experiment(cfg, ds)

    @pytest.mark.parametrize("mode", ["rematch", "discard"])
    @pytest.mark.parametrize("warning_filter", ["error", "ignore"])
    def test_an_overflowing_embedding_names_the_projection(self, mode, warning_filter):
        # lr_model lies in its declared interval; the first overflow of such a
        # run is the next embedding's row norm, whatever the warning filters
        ds = make_benchmark(n=120, classes=5, noise=0.1, mrate=0.4, rng_seed=0)
        cfg = TrainConfig(mode=mode, seed=0, optimizer="adam", warmup_epochs=1,
                          train_epochs=2, lr_decay_epoch=3, lr_model=1e300)
        with warnings.catch_warnings():
            warnings.simplefilter(warning_filter, RuntimeWarning)
            with pytest.raises(FloatingPointError, match="^the visual projection's embedding "
                                                         "failed: overflow encountered"):
                run_experiment(cfg, ds)

    def test_a_non_finite_new_weight_names_the_projection(self):
        ds = make_benchmark(n=60, classes=3, noise=0.1, mrate=0.0, rng_seed=0)
        cfg = TrainConfig(optimizer="sgd", **SMALL)
        state = init_state(cfg, ds)
        state.params.w_t[0, 0] = np.inf
        grads = [np.zeros_like(state.params.w_v), np.zeros_like(state.params.w_t)]
        with pytest.raises(FloatingPointError,
                           match="^the text projection's update left non-finite weights "
                                 "in epoch 1$"):
            pl._apply_update(state, cfg, np.concatenate(grads), lr=0.1)


def assert_same_run(state, run):
    """Two run states with equal weights, cost map, RNG stream, optimizer
    moments, records and best checkpoint."""
    np.testing.assert_array_equal(state.params.w_v, run.params.w_v)
    np.testing.assert_array_equal(state.params.w_t, run.params.w_t)
    assert state.theta == run.theta
    assert state.rng.bit_generator.state == run.rng.bit_generator.state
    assert state.epoch == run.epoch
    assert state.history == run.history
    assert all("val" in record for record in state.history)
    assert (state.best_epoch, state.best_rsum) == (run.best_epoch, run.best_rsum)
    np.testing.assert_array_equal(state.best_params.w_v, run.best_params.w_v)
    np.testing.assert_array_equal(state.best_params.w_t, run.best_params.w_t)
    assert state.clip_events == run.clip_events
    if run.adam is not None:
        assert state.adam.step == run.adam.step
        for moment in ("m.w_v", "v.w_v", "m.w_t", "v.w_t"):
            np.testing.assert_array_equal(attrgetter(moment)(state.adam),
                                          attrgetter(moment)(run.adam))


def assert_resume_reproduces_training(tmp_path, ds, cfg):
    """Two epochs, a checkpoint, one resumed epoch: as three straight epochs."""
    straight = init_state(cfg, ds)
    warmup(straight, ds, cfg)
    for _ in range(3):
        train_epoch(straight, ds, cfg)

    stopped = init_state(cfg, ds)
    warmup(stopped, ds, cfg)
    for _ in range(2):
        train_epoch(stopped, ds, cfg)
    path = tmp_path / "checkpoint.npz"
    save_state(stopped, cfg, str(path))
    resumed, cfg_back = load_state(str(path))
    assert cfg_back == cfg
    # an identifying run's resumed epoch starts EM from the restored fit
    restored_fit = resumed.history[-1].get("bmm")
    assert (restored_fit is not None) == pl._MODES[cfg.mode].identify
    train_epoch(resumed, ds, cfg_back)
    assert_same_run(resumed, straight)


def rewrite_entry(path, key, value):
    """Replace one entry of a saved checkpoint."""
    data = dict(np.load(str(path), allow_pickle=False))
    data[key] = value
    np.savez(str(path), **data)


class TestStackedLayout:
    def test_weights_and_moments_are_row_blocks_of_one_array(self, tmp_path):
        # projections of different heights, 32 visual rows over 20 text rows
        ds = make_benchmark(n=150, classes=3, noise=0.1, mrate=0.0, rng_seed=0, d_in_t=20)
        cfg = TrainConfig(optimizer="adam", **SMALL)

        def check(run, *extra):
            # w_v and w_t view the rows of one C-contiguous array: the same
            # memory, shape and strides
            for params in (run.params, run.adam.m, run.adam.v, *extra):
                assert params.w.shape == (52, cfg.embed_dim) and params.w.flags.c_contiguous
                for block, rows in ((params.w_v, slice(None, 32)), (params.w_t, slice(32, None))):
                    assert block.__array_interface__ == params.w[rows].__array_interface__

        state = init_state(cfg, ds)
        check(state)
        pl._step(state, ds, cfg, [(np.arange(8), lambda s: triplet_loss_batch(s, 0.2))], 0.01)
        assert state.adam.step == 1
        check(state)
        warmup(state, ds, cfg)  # its last epoch keeps the best parameters
        check(state, state.best_params)
        save_state(state, cfg, str(tmp_path / "state.npz"))
        back, _ = load_state(str(tmp_path / "state.npz"))
        check(back, back.best_params)


class TestCheckpointing:
    @pytest.mark.parametrize("optimizer", ["sgd", "adam"])
    def test_resume_reproduces_training(self, tmp_path, noisy_ds, optimizer):
        cfg = TrainConfig(seed=1, warmup_epochs=1, train_epochs=3,
                          lr_decay_epoch=2, batch_size=32, optimizer=optimizer)
        assert_resume_reproduces_training(tmp_path, noisy_ds, cfg)

    # the checkpoint falls between two identifying epochs of discard
    @pytest.mark.parametrize("mode", ["discard", "naive"])
    def test_resume_reproduces_training_in_every_mode(self, tmp_path, noisy_ds, mode):
        cfg = TrainConfig(seed=1, warmup_epochs=1, train_epochs=3, lr_decay_epoch=2,
                          batch_size=32, mode=mode)
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
        state = init_state(cfg, noisy_ds)
        warmup(state, noisy_ds, cfg)
        path = tmp_path / "adam.npz"
        save_state(state, cfg, str(path))
        back, _ = load_state(str(path))
        assert back.adam is not None
        np.testing.assert_array_equal(back.adam.m.w_v, state.adam.m.w_v)
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

    @pytest.fixture
    def identified_checkpoint(self, tmp_path, determinism_ds):
        """A discard checkpoint after its first training epoch, which
        recorded a fit."""
        cfg = TrainConfig(mode="discard", **DETERMINISM)
        state = init_state(cfg, determinism_ds)
        warmup(state, determinism_ds, cfg)
        train_epoch(state, determinism_ds, cfg)
        assert state.history[-1]["bmm"] is not None
        path = tmp_path / "identified.npz"
        save_state(state, cfg, str(path))
        return path, state.history

    @pytest.mark.parametrize("epoch", [-5, 7])
    def test_rejects_epoch_outside_the_run(self, identified_checkpoint, epoch):
        path, _ = identified_checkpoint
        rewrite_entry(path, "epoch", np.int64(epoch))
        with pytest.raises(ValueError, match=r"entry 'epoch' must lie in \[0, 6\]"):
            load_state(str(path))

    def test_an_epoch_that_disagrees_with_the_history_is_named(self, identified_checkpoint):
        # 0 lies in the run, so the history's check is the first to fail
        path, _ = identified_checkpoint
        rewrite_entry(path, "epoch", np.int64(0))
        with pytest.raises(ValueError, match=r"entry 'history' must be a list of records "
                                             r"numbered 1\.\.0 \(per entry 'epoch'\)"):
            load_state(str(path))

    def test_weights_that_disagree_with_the_best_weights_are_named(self, identified_checkpoint):
        # the rows of w_v are free, so best_w_v is the first entry to disagree
        path, _ = identified_checkpoint
        with np.load(str(path), allow_pickle=False) as archive:
            w_v = archive["w_v"]
        rewrite_entry(path, "w_v", w_v[:-1])
        with pytest.raises(ValueError, match=rf"entry 'best_w_v' must be a finite float64 "
                                             rf"\({w_v.shape[0] - 1}, 16\) matrix .*"
                                             rf"\(shape per entry 'w_v'\)"):
            load_state(str(path))

    def test_rejects_history_that_is_not_a_list(self, identified_checkpoint):
        path, _ = identified_checkpoint
        rewrite_entry(path, "history", np.array(json.dumps(None)))
        with pytest.raises(ValueError, match=r"entry 'history' must be a list of "
                                             r"records numbered 1\.\.4"):
            load_state(str(path))

    def test_rejects_history_that_misses_an_epoch(self, tmp_path, noisy_ds):
        cfg = TrainConfig(seed=0, warmup_epochs=1, batch_size=64)
        state = init_state(cfg, noisy_ds)
        train_epoch(state, noisy_ds, cfg)
        path = tmp_path / "epoch1.npz"
        save_state(state, cfg, str(path))
        rewrite_entry(path, "history", np.array(json.dumps([])))
        with pytest.raises(ValueError, match=r"entry 'history' must be a list of "
                                             r"records numbered 1\.\.1"):
            load_state(str(path))

    @pytest.mark.parametrize("name,value", [("alpha_lo", -1.0),
                                            ("weight_hi", float("nan"))])
    def test_rejects_an_invalid_recorded_fit(self, identified_checkpoint, name, value):
        path, history = identified_checkpoint
        history = copy.deepcopy(history)
        history[-1]["bmm"][name] = value
        rewrite_entry(path, "history", np.array(json.dumps(history)))
        with pytest.raises(ValueError, match=f"entry 'history' record 4 has an invalid "
                                             f"bmm block: {name} must be"):
            load_state(str(path))

    @pytest.mark.parametrize("name,value", [("alpha_lo", 5e-4), ("beta_hi", 1e306)])
    def test_rejects_a_recorded_shape_no_fit_returns(self, identified_checkpoint,
                                                     name, value):
        # fit_bmm clamps its shapes into [1e-3, 1e6]; a shape of 1e306 would
        # overflow math.lgamma in the next epoch's EM start
        path, history = identified_checkpoint
        history = copy.deepcopy(history)
        history[-1]["bmm"][name] = value
        rewrite_entry(path, "history", np.array(json.dumps(history)))
        with pytest.raises(ValueError, match=rf"entry 'history' record 4 has an invalid "
                                             rf"bmm block: {name} must be a real number "
                                             rf"in \[0\.001, 1000000\.0\]"):
            load_state(str(path))

    @pytest.mark.parametrize("name,value", [("cost_w", -50.5), ("cost_b", 1e3),
                                            ("cost_w", float("nan"))])
    def test_rejects_a_cost_map_outside_the_clamp(self, identified_checkpoint, name, value):
        path, _ = identified_checkpoint
        rewrite_entry(path, name, np.float64(value))
        with pytest.raises(ValueError, match=rf"entry '{name}' must be a real number "
                                             rf"in \[-50\.0, 50\.0\]"):
            load_state(str(path))

    @pytest.mark.parametrize("optimizer", ["sgd", "adam"])
    def test_entries_not_saved_load_as_none(self, tmp_path, noisy_ds, optimizer):
        # a run that has not started keeps no best, and only adam keeps moments
        cfg = TrainConfig(seed=0, optimizer=optimizer)
        path = tmp_path / "fresh.npz"
        save_state(init_state(cfg, noisy_ds), cfg, str(path))
        state, _ = load_state(str(path))
        assert state.best_params is None
        assert (state.adam is None) == (optimizer == "sgd")

    def test_rejects_negative_clip_events(self, identified_checkpoint):
        # the whole message: a plain rule's error names no other entry
        path, _ = identified_checkpoint
        rewrite_entry(path, "clip_events", np.int64(-1))
        with pytest.raises(ValueError) as excinfo:
            load_state(str(path))
        assert str(excinfo.value) == (f"checkpoint {path} entry 'clip_events' must be an "
                                      "integer >= 0, got -1")

    # the identified checkpoint is epoch 4 of 6 (3 warm-up epochs), saved with
    # adam, so its best epoch lies in [3, 4]
    @pytest.mark.parametrize("name,bad,match", [
        ("w_v", lambda w: w[:, :-1], r"entry 'w_v' must be a finite float64 \(\d+, 16\)"),
        ("w_v", lambda w: np.full_like(w, np.nan), "entry 'w_v' must be a finite float64"),
        ("w_t", lambda w: w.astype(np.float32), "entry 'w_t' must be a finite float64"),
        ("best_w_v", lambda w: w[:-1], "entry 'best_w_v' must be a finite float64"),
        ("adam_m_v", lambda m: m[:, :-1], "entry 'adam_m_v' must be a finite float64"),
        ("adam_v_t", lambda v: v - 1.0, r"entry 'adam_v_t' must be .* of values >= 0"),
        ("adam_step", lambda step: np.int64(-5), "entry 'adam_step' must be an integer >= 0"),
        ("best_epoch", lambda epoch: np.int64(99), r"entry 'best_epoch' must lie in \[3, 4\]"),
        ("best_epoch", lambda epoch: np.int64(2), r"entry 'best_epoch' must lie in \[3, 4\]"),
        ("best_epoch", lambda epoch: np.int64(-1), r"entry 'best_epoch' must lie in \[3, 4\]"),
        ("best_rsum", lambda rsum: np.float64(np.nan), "entry 'best_rsum' must be one of"),
        ("best_rsum", lambda rsum: rsum + 1.0, "entry 'best_rsum' must be one of"),
        ("version", lambda version: np.float64(4.5), r"entry 'version' must lie in \[4, 4\]"),
        ("rng_state", lambda state: np.array(json.dumps(np.random.PCG64DXSM(0).state)),
         "entry 'rng_state' is invalid"),
    ], ids=["w_v-width", "w_v-nan", "w_t-float32", "best_w_v-rows", "adam_m_v-width",
            "adam_v_t-negative", "adam_step-negative", "best_epoch-99", "best_epoch-warmup",
            "best_epoch-none", "best_rsum-nan", "best_rsum-other", "version-4.5",
            "rng_state-foreign"])
    def test_rejects_an_entry_its_check_forbids(self, identified_checkpoint, name, bad,
                                                match):
        path, _ = identified_checkpoint
        with np.load(str(path), allow_pickle=False) as archive:
            value = archive[name]
        rewrite_entry(path, name, bad(value))
        with pytest.raises(ValueError, match=match):
            load_state(str(path))

    def test_rejects_missing_best_weights_once_a_best_is_kept(self, identified_checkpoint):
        path, _ = identified_checkpoint
        data = dict(np.load(str(path), allow_pickle=False))
        del data["best_w_v"]
        np.savez(str(path), **data)
        with pytest.raises(ValueError, match="entry 'best_w_v' must be saved exactly when "
                                             "best_epoch != -1"):
            load_state(str(path))

    @pytest.mark.parametrize("optimizer,name,value,words", [
        ("sgd", "adam_step", np.int64(0), "the optimizer is adam"),
        ("adam", "best_w_v", np.zeros((2, 2)), "best_epoch != -1"),
    ])
    def test_rejects_a_surplus_entry(self, tmp_path, noisy_ds, optimizer, name, value, words):
        # a checkpoint of a run that has not started: no best, and moments only with adam
        cfg = TrainConfig(seed=0, optimizer=optimizer)
        path = tmp_path / "surplus.npz"
        save_state(init_state(cfg, noisy_ds), cfg, str(path))
        rewrite_entry(path, name, value)
        with pytest.raises(ValueError, match=f"entry '{name}' must be saved exactly when {words}"):
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
