"""Synthetic paired-feature datasets with controlled caption corruption,
plus retrieval and identification scoring.

Each item carries a visual and a text feature row generated from a shared
class prototype, so genuinely paired rows agree semantically while rows of
different classes do not. Corruption permutes the captions of a selected
subset, mimicking harvested datasets whose pairings are partially wrong.
"""

from __future__ import annotations

import json
import os
import tempfile
from contextlib import contextmanager
from dataclasses import dataclass, field, replace

import numpy as np

from ._settings import require

__all__ = [
    "PairDataset",
    "generate",
    "corrupt",
    "make_benchmark",
    "save_dataset",
    "load_dataset",
    "recall_at_k",
    "identification_score",
]

SPLIT_POOL = 0
SPLIT_TEST = 1

RECALL_CUTOFFS = (1, 5, 10)

_FORMAT_KIND = "paired-features"
_FORMAT_VERSION = 1


@dataclass
class PairDataset:
    """Indexed visual/text pairs with hidden ground-truth match flags.

    ``matched`` is 1 where image and caption share a semantic class and 0
    where corruption broke the pair. ``v_class``/``t_class`` are generator
    bookkeeping (the caption class travels with the caption when captions
    are permuted). ``split`` marks evaluation rows held out before
    corruption.
    """

    v_feats: np.ndarray
    t_feats: np.ndarray
    matched: np.ndarray
    v_class: np.ndarray
    t_class: np.ndarray
    mrate: float = 0.0
    seed: int = 0
    noise: float = 0.0
    classes: int = 0
    latent_dim: int = 0
    split: np.ndarray = field(default=None)

    def __post_init__(self):
        if self.split is None:
            self.split = np.zeros(len(self), dtype=np.int8)

    def __len__(self) -> int:
        return self.v_feats.shape[0]

    @property
    def pool_indices(self) -> np.ndarray:
        return np.flatnonzero(self.split == SPLIT_POOL)

    @property
    def test_indices(self) -> np.ndarray:
        return np.flatnonzero(self.split == SPLIT_TEST)


def generate(n: int, classes: int, noise: float, rng_seed: int,
             d_in_v: int = 32, d_in_t: int = 32, latent_dim: int = 8) -> PairDataset:
    """Draw ``n`` clean pairs from ``classes`` latent prototypes.

    Both modalities are fixed random linear images of the item's class
    prototype plus isotropic Gaussian noise; all pairs start matched.
    Deterministic per seed.
    """
    require("classes", classes, 2)
    require("n", n, classes)
    require("noise", noise, "[0, inf)")
    for name, width in (("d_in_v", d_in_v), ("d_in_t", d_in_t),
                        ("latent_dim", latent_dim)):
        require(name, width, 1)
    rng = np.random.default_rng(rng_seed)
    prototypes = rng.normal(size=(classes, latent_dim))
    map_v = rng.normal(scale=1.0 / np.sqrt(latent_dim), size=(latent_dim, d_in_v))
    map_t = rng.normal(scale=1.0 / np.sqrt(latent_dim), size=(latent_dim, d_in_t))
    labels = rng.integers(0, classes, size=n)
    latent = prototypes[labels]
    v_feats = latent @ map_v + noise * rng.normal(size=(n, d_in_v))
    t_feats = latent @ map_t + noise * rng.normal(size=(n, d_in_t))
    return PairDataset(
        v_feats=v_feats,
        t_feats=t_feats,
        matched=np.ones(n, dtype=np.int8),
        v_class=labels.astype(np.int64),
        t_class=labels.astype(np.int64),
        mrate=0.0,
        seed=rng_seed,
        noise=noise,
        classes=classes,
        latent_dim=latent_dim,
    )


def _derangement(size: int, rng) -> np.ndarray:
    """Uniform random permutation without fixed points (rejection sampled)."""
    while True:
        perm = rng.permutation(size)
        if not np.any(perm == np.arange(size)):
            return perm


def corrupt(ds: PairDataset, mrate: float, rng_seed: int) -> PairDataset:
    """Permute the captions of a random ``round(mrate * pool size)`` subset
    of the pool rows; test rows never move.

    The permutation is a derangement within the subset, so every selected
    caption actually moves. A pair keeps ``matched = 1`` only if its new
    caption happens to share the image's class; everything else is labeled
    0. A forced subset of one is widened to two, the smallest that admits a
    derangement.
    """
    require("mrate", mrate, "[0, 1)")
    if mrate == 0:
        return replace(ds, mrate=0.0)
    pool = ds.pool_indices
    rng = np.random.default_rng(rng_seed)
    count = int(round(mrate * pool.size))
    if count == 1:
        count = 2
    if count == 0:
        return replace(ds, mrate=mrate)
    selected = pool[np.sort(rng.choice(pool.size, size=count, replace=False))]
    perm = _derangement(count, rng)
    t_feats = ds.t_feats.copy()
    t_class = ds.t_class.copy()
    t_feats[selected] = ds.t_feats[selected[perm]]
    t_class[selected] = ds.t_class[selected[perm]]
    matched = (ds.v_class == t_class).astype(np.int8)
    return replace(ds, t_feats=t_feats, t_class=t_class, matched=matched,
                   mrate=mrate)


def make_benchmark(n: int, classes: int, noise: float, mrate: float,
                   rng_seed: int, test_frac: float = 0.2, **gen_kwargs) -> PairDataset:
    """Generate, hold out a clean test split, and corrupt the rest.

    The test split (``test_frac`` of items) is selected before corruption,
    which moves pool rows only, so evaluation always runs on clean pairs.
    """
    require("test_frac", test_frac, "[0, 1)")
    ds = generate(n, classes, noise, rng_seed, **gen_kwargs)
    rng = np.random.default_rng((rng_seed, 0x7e57))
    n_test = int(round(test_frac * n))
    test_idx = rng.choice(n, size=n_test, replace=False)
    split = np.zeros(n, dtype=np.int8)
    split[test_idx] = SPLIT_TEST
    return corrupt(replace(ds, split=split), mrate, rng_seed=rng_seed + 1)


@contextmanager
def atomic_write(path: str, mode: str = "w"):
    """Open a temp file beside ``path`` and rename it onto ``path`` when the
    block ends, so readers see the old file or the whole new one; the temp
    file is removed if the block raises. Missing directories are created."""
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    fd, tmp_path = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, mode) as handle:
            yield handle
        os.replace(tmp_path, path)
    except BaseException:
        if os.path.exists(tmp_path):
            os.unlink(tmp_path)
        raise


def save_dataset(ds: PairDataset, path: str) -> None:
    """Write the dataset as JSON lines: one header record, one record per pair.

    Record fields: ``index, v_feat, t_feat, m, class, t_class, split``.
    The write is atomic (temp file then rename).
    """
    header = {
        "kind": _FORMAT_KIND,
        "version": _FORMAT_VERSION,
        "n": len(ds),
        "d_in_v": int(ds.v_feats.shape[1]),
        "d_in_t": int(ds.t_feats.shape[1]),
        "classes": int(ds.classes),
        "noise": float(ds.noise),
        "mrate": float(ds.mrate),
        "seed": int(ds.seed),
        "latent_dim": int(ds.latent_dim),
    }
    with atomic_write(path) as handle:
        handle.write(json.dumps(header) + "\n")
        for i in range(len(ds)):
            record = {
                "index": i,
                "v_feat": ds.v_feats[i].tolist(),
                "t_feat": ds.t_feats[i].tolist(),
                "m": int(ds.matched[i]),
                "class": int(ds.v_class[i]),
                "t_class": int(ds.t_class[i]),
                "split": int(ds.split[i]),
            }
            handle.write(json.dumps(record) + "\n")


def _json_line(line: str, where: str) -> dict:
    try:
        record = json.loads(line)
    except json.JSONDecodeError as exc:
        raise ValueError(f"{where}: not valid JSON ({exc.msg})") from None
    if not isinstance(record, dict):
        raise ValueError(f"{where}: expected a JSON object")
    return record


def _field(record: dict, key: str, where: str):
    if key not in record:
        raise ValueError(f"{where}: missing key {key!r}")
    return record[key]


def _integer(record: dict, key: str, where: str) -> int:
    value = _field(record, key, where)
    if not isinstance(value, int) or isinstance(value, bool):
        raise ValueError(f"{where}: {key!r} must be an integer, got {value!r}")
    return value


def _features(record: dict, key: str, width: int, where: str) -> np.ndarray:
    try:
        row = np.asarray(_field(record, key, where), dtype=np.float64)
    except (TypeError, ValueError):
        raise ValueError(f"{where}: {key!r} must be a list of numbers") from None
    if row.shape != (width,):
        raise ValueError(f"{where}: {key!r} has shape {row.shape}, "
                         f"the header gives width {width}")
    if not np.all(np.isfinite(row)):
        raise ValueError(f"{where}: {key!r} has non-finite entries")
    return row


def load_dataset(path: str) -> PairDataset:
    """Read a dataset written by :func:`save_dataset`.

    The file is checked as it is read: one record per index ``0 .. n-1``
    with the header's feature widths, finite features, ``m`` in {0, 1}, a
    known split code and nonnegative integer class labels. Any departure
    raises ``ValueError`` naming the line.
    """
    with open(path) as handle:
        where = f"{path}: line 1"
        header = _json_line(handle.readline(), where)
        if header.get("kind") != _FORMAT_KIND:
            raise ValueError(f"{path}: not a {_FORMAT_KIND} file")
        if header.get("version") != _FORMAT_VERSION:
            raise ValueError(f"{path}: unsupported format version "
                             f"{header.get('version')}")
        n, d_v, d_t = (_integer(header, key, where) for key in ("n", "d_in_v", "d_in_t"))
        if n < 0 or d_v < 1 or d_t < 1:
            raise ValueError(f"{where}: bad sizes n={n}, d_in_v={d_v}, d_in_t={d_t}")
        meta = {key: _field(header, key, where)
                for key in ("mrate", "seed", "noise", "classes", "latent_dim")}
        v_feats = np.empty((n, d_v))
        t_feats = np.empty((n, d_t))
        matched = np.empty(n, dtype=np.int8)
        v_class = np.empty(n, dtype=np.int64)
        t_class = np.empty(n, dtype=np.int64)
        split = np.empty(n, dtype=np.int8)
        seen = np.zeros(n, dtype=bool)
        for lineno, line in enumerate(handle, start=2):
            if not line.strip():
                continue
            where = f"{path}: line {lineno}"
            record = _json_line(line, where)
            i = _integer(record, "index", where)
            if not 0 <= i < n:
                raise ValueError(f"{where}: index {i} outside 0..{n - 1}")
            if seen[i]:
                raise ValueError(f"{where}: duplicate index {i}")
            seen[i] = True
            v_feats[i] = _features(record, "v_feat", d_v, where)
            t_feats[i] = _features(record, "t_feat", d_t, where)
            m, code = _integer(record, "m", where), _integer(record, "split", where)
            if m not in (0, 1):
                raise ValueError(f"{where}: 'm' must be 0 or 1, got {m}")
            if code not in (SPLIT_POOL, SPLIT_TEST):
                raise ValueError(f"{where}: unknown split code {code}")
            matched[i], split[i] = m, code
            for key, labels in (("class", v_class), ("t_class", t_class)):
                label = _integer(record, key, where)
                if not 0 <= label < 2**63:
                    raise ValueError(f"{where}: {key!r} label {label} out of range")
                labels[i] = label
    if not seen.all():
        raise ValueError(f"{path}: {int(seen.sum())} records for n={n} pairs "
                         f"(truncated file?)")
    return PairDataset(
        v_feats=v_feats, t_feats=t_feats, matched=matched,
        v_class=v_class, t_class=t_class, split=split, **meta,
    )


def recall_at_k(s) -> dict:
    """Recall@K for K in 1, 5 and 10, both directions, over a one-to-one
    square similarity whose true pairs lie on the diagonal.

    Ties rank the lower index first. Values are percentages; ``rsum`` adds
    all six direction/cutoff combinations. A NaN similarity has no rank and
    raises ``ValueError``.
    """
    s = np.asarray(s, dtype=np.float64)
    if s.ndim != 2 or s.shape[0] != s.shape[1]:
        raise ValueError("expected a square similarity matrix")
    if np.isnan(s).any():
        raise ValueError("similarity matrix contains NaN")
    n = s.shape[0]
    if max(RECALL_CUTOFFS) > n:
        raise ValueError(f"k={max(RECALL_CUTOFFS)} exceeds split size {n}")

    target = np.diag(s)[:, None]
    earlier = np.tri(n, k=-1, dtype=bool)  # column j < row i

    def ranks(matrix):
        # the entries of each row that beat its diagonal: higher, or equal at
        # a lower index
        return ((matrix > target) | ((matrix == target) & earlier)).sum(axis=1)

    rank_i2t = ranks(s)
    rank_t2i = ranks(s.T)

    metrics = {}
    for k in RECALL_CUTOFFS:
        metrics[f"r{k}_i2t"] = float(100.0 * (rank_i2t < k).mean())
        metrics[f"r{k}_t2i"] = float(100.0 * (rank_t2i < k).mean())
    metrics["rsum"] = float(sum(metrics[f"r{k}_{d}"] for k in RECALL_CUTOFFS
                                for d in ("i2t", "t2i")))
    return metrics


def identification_score(predicted_mismatched, matched_flags) -> dict:
    """Precision/recall/F1 of a mismatch prediction, mismatched = positive."""
    actual = np.asarray(matched_flags) == 0
    n = actual.shape[0]
    index = np.asarray(predicted_mismatched, dtype=np.int64)
    if np.any((index < 0) | (index >= n)):
        raise ValueError(f"predicted indices must lie in 0..{n - 1}")
    predicted = np.zeros(n, dtype=bool)
    predicted[index] = True
    tp = int((predicted & actual).sum())
    fp = int((predicted & ~actual).sum())
    fn = int((~predicted & actual).sum())
    precision = tp / (tp + fp) if tp + fp else 0.0
    recall = tp / (tp + fn) if tp + fn else 0.0
    f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
    return {"precision": precision, "recall": recall, "f1": f1,
            "true_positive": tp, "false_positive": fp, "false_negative": fn}
