"""Pinned run outputs, held as fixture texts under ``tests/pins/``.

A pin is the text one fixed run leaves: a run payload without its
``timing`` block, as ``json.dumps(payload, sort_keys=True, indent=1)``, or
a checkpoint, as the sha256 of each archive entry. The tests compare that
text with its fixture byte for byte, which is exactly as strict as a digest
of it. On a mismatch the failure names the first key paths that differ and
the largest absolute and relative float change under each top-level key.

The fixtures were recorded with numpy 2.4 and scipy-openblas on x86-64. A
change meant only to speed a run up must leave them be. A change that moves
a number a run computes, or the settings the ``config`` echo lists, moves
them on purpose; re-record them then, from the repository root, with

    PYTHONPATH=src python tests/pinned.py [NAME ...]

(no name re-records every pin), and name in CHANGES.md each pin that moved
and the keys that moved in it. The tests never re-record.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import sys
import tempfile
from pathlib import Path

PINS_DIR = Path(__file__).with_name("pins")
RECORD = "PYTHONPATH=src python tests/pinned.py"
SHOWN_PATHS = 10
ABSENT = "<absent>"  # stands for a key path one of two texts lacks

# the dataset and schedule of acceptance criterion 9
DETERMINISM_DATA = dict(n=200, classes=5, noise=0.1, mrate=0.4, rng_seed=3)
DETERMINISM = dict(seed=3, optimizer="adam", warmup_epochs=3, train_epochs=3,
                   lr_decay_epoch=4, batch_size=32)


def _payload_text(payload: dict) -> str:
    payload = dict(payload)
    payload.pop("timing")
    return json.dumps(payload, sort_keys=True, indent=1) + "\n"


def _determinism_run(mode: str, optimizer: str) -> str:
    from rematch.data import make_benchmark
    from rematch.pipeline import TrainConfig, run_experiment

    cfg = TrainConfig(mode=mode, **{**DETERMINISM, "optimizer": optimizer})
    return _payload_text(run_experiment(cfg, make_benchmark(**DETERMINISM_DATA)))


def _batch_128_run() -> str:
    # its solves have 129 free columns, so their Newton directions come from CG
    from rematch.data import make_benchmark
    from rematch.pipeline import TrainConfig, run_experiment

    ds = make_benchmark(n=400, classes=10, noise=0.1, mrate=0.6, rng_seed=5)
    cfg = TrainConfig(mode="rematch", seed=5, optimizer="adam", warmup_epochs=2,
                      train_epochs=2, lr_decay_epoch=3, batch_size=128)
    return _payload_text(run_experiment(cfg, ds))


def _checkpoint_entries() -> str:
    # the zip headers carry timestamps, so the arrays are hashed, not the file
    import numpy as np

    from rematch.cli import main

    with tempfile.TemporaryDirectory() as tmp, \
            contextlib.redirect_stdout(io.StringIO()):
        data, state = Path(tmp, "pairs.jsonl"), Path(tmp, "checkpoint.npz")
        assert main(["gen", "--n", "150", "--classes", "5", "--mrate", "0.4",
                     "--seed", "0", "--out", str(data)]) == 0
        assert main(["train", "--data", str(data), "--out", str(Path(tmp, "m.json")),
                     "--state-out", str(state), "--optimizer", "adam",
                     "--warmup-epochs", "1", "--train-epochs", "1",
                     "--lr-decay-epoch", "2", "--batch-size", "32"]) == 0
        with np.load(state) as archive:
            digests = {key: hashlib.sha256(archive[key].tobytes()).hexdigest()
                       for key in archive.files}
    return json.dumps(digests, sort_keys=True, indent=1) + "\n"


PINS = {
    **{f"{mode}-{optimizer}": (lambda m=mode, o=optimizer: _determinism_run(m, o))
       for optimizer in ("adam", "sgd") for mode in ("rematch", "naive", "discard")},
    "rematch-batch128": _batch_128_run,
    "checkpoint-adam": _checkpoint_entries,
}


def fixture(name: str) -> Path:
    return PINS_DIR / f"{name}.json"


def _leaves(value, path=""):
    """``(key path, value)`` of every scalar in a JSON value, in document order."""
    if isinstance(value, dict):
        for key in sorted(value):
            yield from _leaves(value[key], f"{path}.{key}" if path else key)
    elif isinstance(value, list):
        for i, item in enumerate(value):
            yield from _leaves(item, f"{path}[{i}]")
    else:
        yield path, value


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def describe_difference(old_text: str, new_text: str) -> list[str]:
    """What moved between two JSON texts: the first key paths that differ,
    and per top-level key the largest absolute and relative float change."""
    old, new = dict(_leaves(json.loads(old_text))), dict(_leaves(json.loads(new_text)))
    moved = [path for path in [*old, *(p for p in new if p not in old)]
             if repr(old.get(path, ABSENT)) != repr(new.get(path, ABSENT))]
    if not moved:
        return ["the texts differ, but every value agrees"]
    lines = [f"{len(moved)} key paths differ; the first {min(len(moved), SHOWN_PATHS)}:"]
    lines += [f"  {path}: {old.get(path, ABSENT)!r} -> {new.get(path, ABSENT)!r}"
              for path in moved[:SHOWN_PATHS]]
    largest = {}  # top-level key -> [(abs change, path), (rel change, path)]
    for path in moved:
        a, b = old.get(path), new.get(path)
        if not (_is_number(a) and _is_number(b)):
            continue
        change = abs(b - a)
        rel = change / abs(a) if a else math.inf
        top = path.split(".")[0].split("[")[0]
        best = largest.setdefault(top, [(-1.0, ""), (-1.0, "")])
        best[0] = max(best[0], (change, path))
        best[1] = max(best[1], (rel, path))
    if largest:
        lines.append("largest float change per top-level key:")
        lines += [f"  {top}: abs {a:.3g} at {a_path}, rel {r:.3g} at {r_path}"
                  for top, ((a, a_path), (r, r_path)) in sorted(largest.items())]
    return lines


def assert_pinned(name: str, text: str) -> None:
    """Fail, saying what moved, unless ``text`` is the fixture of pin ``name``."""
    path = fixture(name)
    if not path.is_file():
        raise AssertionError(f"no fixture {path}; record it with: {RECORD} {name}")
    recorded = path.read_text()
    if text == recorded:
        return
    lines = [f"pin {name!r} differs from {path.name} "
             f"(re-record on purpose with: {RECORD} {name})"]
    raise AssertionError("\n".join(lines + describe_difference(recorded, text)))


def main(names: list[str]) -> int:
    unknown = sorted(set(names) - set(PINS))
    if unknown:
        print(f"unknown pins {unknown}; known: {sorted(PINS)}", file=sys.stderr)
        return 2
    PINS_DIR.mkdir(exist_ok=True)
    for name in names or PINS:
        text = PINS[name]()
        path = fixture(name)
        old = path.read_text() if path.is_file() else None
        path.write_text(text)
        if old is None:
            print(f"{name}: recorded")
        elif old == text:
            print(f"{name}: unchanged")
        else:
            print("\n".join([f"{name}: re-recorded"] + describe_difference(old, text)))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
