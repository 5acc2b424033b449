"""Dataset generation, corruption bookkeeping, serialization, and scoring."""

import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rematch.data import (
    SPLIT_TEST,
    corrupt,
    generate,
    identification_score,
    load_dataset,
    make_benchmark,
    recall_at_k,
    save_dataset,
)


class TestGenerate:
    def test_same_class_shares_latent_at_zero_noise(self):
        ds = generate(n=50, classes=5, noise=0.0, rng_seed=0)
        for cls in range(5):
            rows = np.flatnonzero(ds.v_class == cls)
            if rows.size < 2:
                continue
            np.testing.assert_allclose(ds.v_feats[rows[0]], ds.v_feats[rows[1]])
            np.testing.assert_allclose(ds.t_feats[rows[0]], ds.t_feats[rows[1]])

    def test_deterministic_per_seed(self):
        a = generate(n=40, classes=4, noise=0.3, rng_seed=7)
        b = generate(n=40, classes=4, noise=0.3, rng_seed=7)
        np.testing.assert_array_equal(a.v_feats, b.v_feats)
        np.testing.assert_array_equal(a.t_feats, b.t_feats)
        np.testing.assert_array_equal(a.v_class, b.v_class)

    def test_all_pairs_start_matched(self):
        ds = generate(n=30, classes=3, noise=0.1, rng_seed=1)
        assert np.all(ds.matched == 1)

    def test_class_separability(self):
        # nearest-prototype classification of the visual features against
        # the noiseless class images must be nearly perfect
        ds = generate(n=400, classes=10, noise=0.1, rng_seed=0)
        clean = generate(n=400, classes=10, noise=0.0, rng_seed=0)
        prototypes = np.stack([clean.v_feats[clean.v_class == c][0]
                               for c in range(10)])
        distances = ((ds.v_feats[:, None, :] - prototypes[None]) ** 2).sum(axis=2)
        predicted = distances.argmin(axis=1)
        assert (predicted == ds.v_class).mean() > 0.95

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            generate(n=3, classes=5, noise=0.1, rng_seed=0)
        with pytest.raises(ValueError):
            generate(n=10, classes=2, noise=-0.1, rng_seed=0)


class TestCorrupt:
    def test_zero_rate_is_identity(self):
        ds = generate(n=30, classes=3, noise=0.1, rng_seed=2)
        out = corrupt(ds, mrate=0.0, rng_seed=0)
        np.testing.assert_array_equal(out.t_feats, ds.t_feats)
        assert np.all(out.matched == 1)

    def test_exact_count_permuted_by_derangement(self):
        ds = generate(n=100, classes=10, noise=0.1, rng_seed=3)
        out = corrupt(ds, mrate=0.5, rng_seed=0)
        moved = np.flatnonzero((out.t_feats != ds.t_feats).any(axis=1))
        assert moved.size == 50

    def test_caption_rows_are_permuted_not_resampled(self):
        ds = generate(n=60, classes=6, noise=0.2, rng_seed=4)
        out = corrupt(ds, mrate=0.4, rng_seed=1)
        original = {tuple(row) for row in ds.t_feats}
        permuted = {tuple(row) for row in out.t_feats}
        assert original == permuted

    def test_mismatch_flags_track_class_changes(self):
        ds = generate(n=200, classes=10, noise=0.1, rng_seed=5)
        out = corrupt(ds, mrate=0.4, rng_seed=2)
        np.testing.assert_array_equal(out.matched,
                                      (out.v_class == out.t_class).astype(np.int8))
        # fraction of broken pairs tracks the rate up to same-class collisions
        collisions = 80 - (out.matched == 0).sum()
        assert 0 <= collisions < 80
        assert abs((out.matched == 0).mean() - 0.4) <= collisions / 200 + 1e-12

    def test_subset_of_one_is_widened(self):
        ds = generate(n=10, classes=2, noise=0.1, rng_seed=6)
        out = corrupt(ds, mrate=0.1, rng_seed=0)
        moved = np.flatnonzero((out.t_feats != ds.t_feats).any(axis=1))
        assert moved.size == 2

    def test_invalid_rate_rejected(self):
        ds = generate(n=10, classes=2, noise=0.1, rng_seed=0)
        with pytest.raises(ValueError):
            corrupt(ds, mrate=1.0, rng_seed=0)


class TestMakeBenchmark:
    def test_test_split_is_clean(self):
        ds = make_benchmark(n=200, classes=10, noise=0.1, mrate=0.6, rng_seed=0)
        assert ds.test_indices.size == 40
        assert np.all(ds.matched[ds.test_indices] == 1)
        assert np.all(ds.v_class[ds.test_indices] == ds.t_class[ds.test_indices])

    def test_pool_is_corrupted_at_rate(self):
        ds = make_benchmark(n=500, classes=10, noise=0.1, mrate=0.4, rng_seed=0)
        pool = ds.pool_indices
        broken = (ds.matched[pool] == 0).mean()
        assert 0.3 < broken <= 0.4

    @pytest.mark.parametrize("mrate", [0.0, 0.4])
    def test_corrupting_again_leaves_the_test_rows(self, mrate):
        ds = make_benchmark(n=200, classes=10, noise=0.1, mrate=mrate, rng_seed=0)
        out = corrupt(ds, mrate=0.5, rng_seed=9)
        test = ds.test_indices
        for name in ("v_feats", "t_feats", "matched", "v_class", "t_class", "split"):
            before, after = getattr(ds, name)[test], getattr(out, name)[test]
            assert after.tobytes() == before.tobytes(), name
        moved = (out.t_feats != ds.t_feats).any(axis=1)
        assert moved.sum() == round(0.5 * ds.pool_indices.size)

    def test_deterministic(self):
        a = make_benchmark(n=100, classes=5, noise=0.1, mrate=0.3, rng_seed=9)
        b = make_benchmark(n=100, classes=5, noise=0.1, mrate=0.3, rng_seed=9)
        np.testing.assert_array_equal(a.t_feats, b.t_feats)
        np.testing.assert_array_equal(a.split, b.split)


class TestSerialization:
    def test_round_trip(self, tmp_path):
        ds = make_benchmark(n=50, classes=5, noise=0.2, mrate=0.4, rng_seed=11)
        path = tmp_path / "pairs.jsonl"
        save_dataset(ds, str(path))
        back = load_dataset(str(path))
        np.testing.assert_allclose(back.v_feats, ds.v_feats)
        np.testing.assert_allclose(back.t_feats, ds.t_feats)
        np.testing.assert_array_equal(back.matched, ds.matched)
        np.testing.assert_array_equal(back.split, ds.split)
        assert back.mrate == ds.mrate and back.seed == ds.seed

    def test_rejects_foreign_files(self, tmp_path):
        path = tmp_path / "other.jsonl"
        path.write_text('{"kind": "something-else"}\n')
        with pytest.raises(ValueError, match="paired-features"):
            load_dataset(str(path))


    def test_failed_write_keeps_the_old_file_and_no_temp(self, tmp_path):
        path = tmp_path / "pairs.jsonl"
        path.write_text("old\n")
        ds = make_benchmark(n=50, classes=5, noise=0.2, mrate=0.4, rng_seed=11)
        ds.matched = None  # fails at the first record, after the header
        with pytest.raises(TypeError):
            save_dataset(ds, str(path))
        assert path.read_text() == "old\n"
        assert [p.name for p in tmp_path.iterdir()] == ["pairs.jsonl"]

    @staticmethod
    def saved_lines(tmp_path):
        ds = make_benchmark(n=100, classes=5, noise=0.2, mrate=0.4, rng_seed=11)
        path = tmp_path / "pairs.jsonl"
        save_dataset(ds, str(path))
        return path, path.read_text().splitlines()

    @staticmethod
    def edit_record(lines, line_index, **changes):
        record = json.loads(lines[line_index])
        record.update(changes)
        return lines[:line_index] + [json.dumps(record)] + lines[line_index + 1:]

    def test_truncated_file_rejected(self, tmp_path):
        path, lines = self.saved_lines(tmp_path)
        path.write_text("\n".join(lines[:51]) + "\n")
        with pytest.raises(ValueError, match="50 records for n=100"):
            load_dataset(str(path))

    def test_duplicate_index_rejected(self, tmp_path):
        path, lines = self.saved_lines(tmp_path)
        path.write_text("\n".join(self.edit_record(lines, 5, index=3)) + "\n")
        with pytest.raises(ValueError, match="line 6: duplicate index 3"):
            load_dataset(str(path))

    def test_bad_split_code_rejected(self, tmp_path):
        path, lines = self.saved_lines(tmp_path)
        path.write_text("\n".join(self.edit_record(lines, 7, split=-110)) + "\n")
        with pytest.raises(ValueError, match="line 8: unknown split code -110"):
            load_dataset(str(path))

    @pytest.mark.parametrize("changes,needle", [
        (dict(index=100), "index 100 outside"),
        (dict(m=2), "'m' must be 0 or 1"),
        (dict(v_feat=[0.5] * 31), "'v_feat' has shape"),
        (dict(t_feat=[float("nan")] * 32), "'t_feat' has non-finite"),
        (dict(t_class=1.5), "'t_class' must be an integer"),
        ({"class": 2**70}, "'class' label 1180591620717411303424 out"),
    ])
    def test_malformed_record_rejected(self, tmp_path, changes, needle):
        path, lines = self.saved_lines(tmp_path)
        path.write_text("\n".join(self.edit_record(lines, 2, **changes)) + "\n")
        with pytest.raises(ValueError, match=f"line 3: {needle}"):
            load_dataset(str(path))

    def test_missing_key_and_bad_json_name_the_line(self, tmp_path):
        path, lines = self.saved_lines(tmp_path)
        record = json.loads(lines[4])
        del record["split"]
        path.write_text("\n".join(lines[:4] + [json.dumps(record)] + lines[5:]) + "\n")
        with pytest.raises(ValueError, match="line 5: missing key 'split'"):
            load_dataset(str(path))
        path.write_text("\n".join(lines[:4] + [lines[4][:-5]] + lines[5:]) + "\n")
        with pytest.raises(ValueError, match="line 5: not valid JSON"):
            load_dataset(str(path))


def brute_force_recall(s, ks):
    n = s.shape[0]
    out = {}
    for k in ks:
        hits_i2t = hits_t2i = 0
        for i in range(n):
            better = sum(1 for j in range(n)
                         if s[i, j] > s[i, i] or (s[i, j] == s[i, i] and j < i))
            hits_i2t += better < k
            better = sum(1 for j in range(n)
                         if s[j, i] > s[i, i] or (s[j, i] == s[i, i] and j < i))
            hits_t2i += better < k
        out[f"r{k}_i2t"] = 100.0 * hits_i2t / n
        out[f"r{k}_t2i"] = 100.0 * hits_t2i / n
    return out


class TestRecallAtK:
    def test_dominant_diagonal_is_perfect(self):
        s = np.full((20, 20), 0.1)
        np.fill_diagonal(s, 0.9)
        metrics = recall_at_k(s)
        assert metrics["r1_i2t"] == 100.0
        assert metrics["rsum"] == 600.0

    def test_constant_matrix_matches_tie_break_oracle(self):
        s = np.zeros((10, 10))
        metrics = recall_at_k(s)
        expected = brute_force_recall(s, (1, 5, 10))
        for key, value in expected.items():
            assert metrics[key] == pytest.approx(value)

    def test_random_matrix_matches_naive_oracle(self):
        rng = np.random.default_rng(13)
        s = rng.uniform(-1, 1, (50, 50))
        metrics = recall_at_k(s)
        expected = brute_force_recall(s, (1, 5, 10))
        for key, value in expected.items():
            assert metrics[key] == pytest.approx(value)

    def test_invariant_under_monotone_transform(self):
        rng = np.random.default_rng(14)
        s = rng.uniform(-1, 1, (30, 30))
        a = recall_at_k(s)
        b = recall_at_k(np.tanh(3 * s) + 2)
        assert a == b

    def test_oversized_k_rejected(self):
        with pytest.raises(ValueError):
            recall_at_k(np.zeros((9, 9)))

    def test_nan_similarity_rejected(self):
        s = np.zeros((10, 10))
        s[2, 1] = np.nan
        with pytest.raises(ValueError, match="NaN"):
            recall_at_k(s)

    @given(seed=st.integers(0, 2**32 - 1), levels=st.integers(1, 4),
           n=st.integers(10, 30))
    @settings(max_examples=100, deadline=None)
    def test_counted_ranks_equal_stable_sort_ranks(self, seed, levels, n):
        # few distinct values (one: a constant matrix), so ties are common
        rng = np.random.default_rng(seed)
        s = rng.integers(0, levels, (n, n)) / levels - 0.5
        truth = np.arange(n)

        def sorted_ranks(matrix):
            order = np.argsort(-matrix, axis=1, kind="stable")
            return (order == truth[:, None]).argmax(axis=1)

        ks = (1, 5, 10)
        expected = {}
        for k in ks:
            expected[f"r{k}_i2t"] = float(100.0 * (sorted_ranks(s) < k).mean())
            expected[f"r{k}_t2i"] = float(100.0 * (sorted_ranks(s.T) < k).mean())
        expected["rsum"] = float(sum(expected[f"r{k}_{d}"] for k in ks
                                     for d in ("i2t", "t2i")))
        assert recall_at_k(s) == expected


class TestIdentificationScore:
    def test_exact_prediction(self):
        flags = np.array([1, 0, 1, 0])
        score = identification_score([1, 3], flags)
        assert score["f1"] == 1.0

    def test_empty_prediction_has_zero_recall(self):
        flags = np.array([1, 0, 1])
        score = identification_score([], flags)
        assert score["recall"] == 0.0
        assert score["f1"] == 0.0

    def test_half_overlap_matches_enumeration(self):
        flags = np.array([0, 0, 1, 1])
        score = identification_score([0, 2], flags)
        # tp=1 fp=1 fn=1 -> precision=recall=f1=0.5
        assert score["precision"] == 0.5
        assert score["recall"] == 0.5
        assert score["f1"] == pytest.approx(0.5)


class TestInputBoundaries:
    @pytest.mark.parametrize("test_frac", [1.0, -0.1, np.nan])
    def test_bad_test_fraction_rejected(self, test_frac):
        with pytest.raises(ValueError, match="^test_frac must be"):
            make_benchmark(n=50, classes=5, noise=0.1, mrate=0.2, rng_seed=0,
                           test_frac=test_frac)

    @pytest.mark.parametrize("kwargs,name", [
        (dict(n=10.5), "n"), (dict(n=4), "n"), (dict(classes=1), "classes"),
        (dict(noise=True), "noise"), (dict(noise=-0.1), "noise"),
        (dict(latent_dim=0), "latent_dim"),
    ])
    def test_bad_generator_argument_rejected(self, kwargs, name):
        args = {**dict(n=10, classes=5, noise=0.1, rng_seed=0), **kwargs}
        with pytest.raises(ValueError, match=f"^{name} must be"):
            generate(**args)

    @pytest.mark.parametrize("mrate", [1.0, -0.1, np.nan])
    def test_bad_mismatch_rate_rejected(self, mrate):
        ds = generate(n=10, classes=5, noise=0.1, rng_seed=0)
        with pytest.raises(ValueError, match="^mrate must be"):
            corrupt(ds, mrate, rng_seed=0)

    def test_record_that_is_not_an_object_rejected(self, tmp_path):
        path, lines = TestSerialization.saved_lines(tmp_path)
        path.write_text("\n".join(lines[:2] + ["[1, 2]"] + lines[3:]) + "\n")
        with pytest.raises(ValueError, match="line 3: expected a JSON object"):
            load_dataset(str(path))

    def test_non_numeric_features_rejected(self, tmp_path):
        path, lines = TestSerialization.saved_lines(tmp_path)
        lines = TestSerialization.edit_record(lines, 2, v_feat=["a"] * 32)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match="line 3: 'v_feat' must be a list of numbers"):
            load_dataset(str(path))

    def test_unknown_version_rejected(self, tmp_path):
        path, lines = TestSerialization.saved_lines(tmp_path)
        path.write_text("\n".join(TestSerialization.edit_record(lines, 0, version=2)) + "\n")
        with pytest.raises(ValueError, match="unsupported format version 2"):
            load_dataset(str(path))

    @pytest.mark.parametrize("changes", [dict(n=-1), dict(d_in_v=0), dict(d_in_t=0)])
    def test_bad_header_sizes_rejected(self, tmp_path, changes):
        path, lines = TestSerialization.saved_lines(tmp_path)
        path.write_text("\n".join(TestSerialization.edit_record(lines, 0, **changes)) + "\n")
        with pytest.raises(ValueError, match="line 1: bad sizes"):
            load_dataset(str(path))

    def test_recall_needs_a_square_similarity(self):
        with pytest.raises(ValueError, match="square"):
            recall_at_k(np.zeros((10, 12)))

    @pytest.mark.parametrize("predicted", [[-1], [5], [0, 3]])
    def test_prediction_outside_the_rows_rejected(self, predicted):
        # index -1 used to count row 2 as a true positive; 5 raised IndexError
        with pytest.raises(ValueError, match=r"must lie in 0\.\.2"):
            identification_score(predicted, [1, 1, 0])
