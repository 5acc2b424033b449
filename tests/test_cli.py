"""Command-line interface tests: flag wiring, payload discipline, and
reproducibility of the file outputs."""

import argparse
import dataclasses
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import rematch
import rematch.encoder as enc
import rematch.pipeline as pl
from rematch.cli import ABLATION_ARMS, build_parser, main

from pinned import PINS, assert_pinned

FAST = ["--warmup-epochs", "1", "--train-epochs", "1", "--lr-decay-epoch", "2",
        "--batch-size", "32"]

SURFACE = Path(__file__).with_name("cli_surface.json")

METRIC_KEYS = {"schema", "mode", "config", "dataset", "splits", "epochs",
               "best", "test", "random_baseline_rsum", "cost_clip_events",
               "timing"}


def make_dataset(tmp_path, capsys, n=150, mrate=0.4, seed=0):
    path = tmp_path / "pairs.jsonl"
    code = main(["gen", "--n", str(n), "--classes", "5", "--mrate", str(mrate),
                 "--seed", str(seed), "--out", str(path)])
    assert code == 0
    capsys.readouterr()
    return path


def flag_row(action) -> dict:
    return {"options": action.option_strings, "dest": action.dest,
            "type": getattr(action.type, "__name__", None),
            "default": action.default,
            "choices": list(action.choices) if action.choices else None,
            "required": action.required, "help": action.help}


def add_config_key(archive):
    config = json.loads(str(archive["config"][()]))
    config["gamma"] = 0.1
    archive["config"] = np.array(json.dumps(config))


def corrupt_config_value(archive):
    config = json.loads(str(archive["config"][()]))
    config["rho"] = 1.5
    archive["config"] = np.array(json.dumps(config))


class TestGenTrain:
    def test_gen_then_train_emits_schema_valid_metrics(self, tmp_path, capsys):
        data = make_dataset(tmp_path, capsys)
        out = tmp_path / "run.json"
        code = main(["train", "--data", str(data), "--out", str(out), *FAST])
        captured = capsys.readouterr()
        assert code == 0
        # stdout carries exactly the payload path
        assert captured.out.strip() == str(out)
        payload = json.loads(out.read_text())
        assert METRIC_KEYS <= payload.keys()
        assert payload["schema"] == "run-metrics/1"
        assert payload["dataset"]["mrate"] == 0.4
        for record in payload["epochs"]:
            assert {"epoch", "phase", "train_loss", "lr", "val"} <= record.keys()

    def test_train_without_out_prints_payload(self, tmp_path, capsys):
        data = make_dataset(tmp_path, capsys)
        code = main(["train", "--data", str(data), *FAST])
        captured = capsys.readouterr()
        assert code == 0
        payload = json.loads(captured.out)
        assert payload["schema"] == "run-metrics/1"

    def test_identical_flags_give_identical_payloads(self, tmp_path, capsys):
        data = make_dataset(tmp_path, capsys)
        payloads = []
        for name in ("a.json", "b.json"):
            out = tmp_path / name
            assert main(["train", "--data", str(data), "--out", str(out),
                         "--seed", "7", *FAST]) == 0
            payload = json.loads(out.read_text())
            payload.pop("timing")
            payloads.append(json.dumps(payload, sort_keys=True))
        capsys.readouterr()
        assert payloads[0] == payloads[1]

    def test_hyperparameter_flags_reach_the_config(self, tmp_path, capsys):
        data = make_dataset(tmp_path, capsys)
        code = main(["train", "--data", str(data), "--rho", "0.25",
                     "--lambda", "0.02", "--mode", "discard",
                     "--optimizer", "adam", *FAST])
        captured = capsys.readouterr()
        assert code == 0
        config = json.loads(captured.out)["config"]
        assert config["rho"] == 0.25
        assert config["lam"] == 0.02
        assert config["mode"] == "discard"
        assert config["optimizer"] == "adam"

    def test_state_out_supports_eval(self, tmp_path, capsys):
        data = make_dataset(tmp_path, capsys)
        state = tmp_path / "checkpoint.npz"
        assert main(["train", "--data", str(data), "--out",
                     str(tmp_path / "m.json"), "--state-out", str(state),
                     *FAST]) == 0
        capsys.readouterr()
        assert main(["eval", "--data", str(data), "--state", str(state)]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["schema"] == "eval-metrics/1"
        assert "rsum" in payload["test"]


class TestPinnedOutputs:
    # sha256 of the bytes each writer leaves, recorded like the pins under
    # tests/pins (numpy 2.4, scipy-openblas, x86-64); a change to how files
    # are written must leave them be
    def test_gen_file_bytes(self, tmp_path, capsys):
        path = make_dataset(tmp_path, capsys)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == (
            "b424c5a39f56c6acf9246c0a33152dd7e92f0e7a2e74b905f678b8d8a5757551")

    def test_checkpoint_entry_bytes(self):
        # one digest per archive entry, against tests/pins/checkpoint-adam.json
        assert_pinned("checkpoint-adam", PINS["checkpoint-adam"]())

    def test_oracle_check_stdout(self, capsys):
        assert main(["oracle-check", "--instances", "30", "--size", "4"]) == 0
        assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == (
            "b12826039da1c140858b1e143a64a925d4646b0d350145171c3ee0fad998f475")


class TestAblate:
    @pytest.mark.parametrize("arm,field,value", [
        ("no-cost", "cost_mode", "cosine"),
        ("no-mask", "mask_positives", False),
        ("no-partial", "rho", 1.0),
        ("kl", "rematch_variant", "kl"),
        ("infonce", "rematch_variant", "ce"),
    ])
    def test_arm_toggles_config(self, tmp_path, capsys, arm, field, value):
        data = make_dataset(tmp_path, capsys)
        code = main(["ablate", "--arm", arm, "--data", str(data), *FAST])
        captured = capsys.readouterr()
        assert code == 0
        payload = json.loads(captured.out)
        assert payload["ablation"] == arm
        assert payload["config"][field] == value

    def test_arm_wins_over_a_flag(self, tmp_path, capsys):
        data = make_dataset(tmp_path, capsys)
        code = main(["ablate", "--arm", "no-partial", "--rho", "0.3",
                     "--data", str(data), *FAST])
        captured = capsys.readouterr()
        assert code == 0
        assert json.loads(captured.out)["config"]["rho"] == 1.0


class TestOracleCheck:
    def test_reports_small_gap(self, capsys):
        code = main(["oracle-check", "--instances", "25", "--size", "4",
                     "--lambda", "0.001"])
        captured = capsys.readouterr()
        assert code == 0
        payload = json.loads(captured.out)
        assert payload["max_relative_gap"] < 1e-3
        assert payload["all_converged"] is True
        assert payload["pass"] is True


class TestErrorHandling:
    def test_unknown_flag_exits_nonzero_with_usage(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(["train", "--no-such-flag"])
        assert excinfo.value.code != 0
        assert "usage" in capsys.readouterr().err

    def test_missing_data_file_reports_error(self, capsys, tmp_path):
        code = main(["train", "--data", str(tmp_path / "absent.jsonl"), *FAST])
        captured = capsys.readouterr()
        assert code == 1
        assert "error" in captured.err

    def test_data_directory_reports_one_line(self, tmp_path, capsys):
        code = main(["train", "--data", str(tmp_path), *FAST])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        lines = captured.err.strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:")

    def test_an_overflowing_update_reports_one_line(self, tmp_path, capsys):
        data = make_dataset(tmp_path, capsys, n=120)
        code = main(["train", "--data", str(data), "--optimizer", "adam",
                     "--warmup-epochs", "1", "--train-epochs", "2", "--lr-decay-epoch", "3",
                     "--tau", "1e-300"])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        errors = [line for line in captured.err.splitlines() if "error" in line.lower()]
        assert errors == [captured.err.strip().splitlines()[-1]]
        assert errors[0].startswith("error: the visual projection's update failed")

    def test_unwritable_out_reports_one_line(self, tmp_path, capsys):
        data = make_dataset(tmp_path, capsys)
        (tmp_path / "afile").write_text("a regular file\n")
        code = main(["train", "--data", str(data), "--out",
                     str(tmp_path / "afile" / "m.json"), *FAST])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert "Traceback" not in captured.err
        assert captured.err.strip().splitlines()[-1].startswith("error:")

    def test_unwritable_state_out_still_emits_the_payload(self, tmp_path, capsys):
        data = make_dataset(tmp_path, capsys)
        (tmp_path / "afile").write_text("a regular file\n")
        code = main(["train", "--data", str(data), "--state-out",
                     str(tmp_path / "afile" / "ck.npz"), *FAST])
        captured = capsys.readouterr()
        assert code == 1
        assert set(json.loads(captured.out)) == METRIC_KEYS
        assert "Traceback" not in captured.err
        assert captured.err.strip().splitlines()[-1].startswith("error:")

    @staticmethod
    def edited_checkpoint(tmp_path, capsys, edit):
        data = make_dataset(tmp_path, capsys)
        state = tmp_path / "checkpoint.npz"
        assert main(["train", "--data", str(data), "--out",
                     str(tmp_path / "m.json"), "--state-out", str(state),
                     *FAST]) == 0
        capsys.readouterr()
        archive = dict(np.load(str(state), allow_pickle=False))
        edit(archive)
        np.savez(str(state), **archive)
        return data, state

    @pytest.mark.parametrize("edit,needle", [
        (add_config_key, "gamma"),
        (lambda archive: archive.pop("w_v"), "w_v"),
        (corrupt_config_value, "rho must be"),
        # a best epoch without its weights: eval must not score the last ones
        (lambda archive: archive.pop("best_w_v"), "best_w_v"),
    ])
    def test_bad_checkpoint_reports_one_line(self, tmp_path, capsys, edit,
                                             needle):
        data, state = self.edited_checkpoint(tmp_path, capsys, edit)
        code = main(["eval", "--data", str(data), "--state", str(state)])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        lines = captured.err.strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:")
        assert needle in lines[0]

    @pytest.mark.parametrize("content", [
        b"PK\x03\x04garbage",             # zip magic, no archive behind it
        b"plain text, not an archive",
        b"\x93NUMPY\x01\x00",              # a .npy header, not an .npz
    ], ids=["zip-magic", "text", "npy"])
    def test_checkpoint_that_is_not_a_zip_reports_one_line(self, tmp_path,
                                                             capsys, content):
        data = make_dataset(tmp_path, capsys)
        state = tmp_path / "checkpoint.npz"
        state.write_bytes(content)
        code = main(["eval", "--data", str(data), "--state", str(state)])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        lines = captured.err.strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:")
        assert str(state) in lines[0]

    def test_truncated_dataset_reports_one_line(self, tmp_path, capsys):
        data = make_dataset(tmp_path, capsys)
        lines = data.read_text().splitlines()
        data.write_text("\n".join(lines[:len(lines) // 2]) + "\n")
        code = main(["train", "--data", str(data), *FAST])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        err = captured.err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error:")
        assert "truncated" in err[0]

    def test_non_finite_gradient_reports_one_line(self, tmp_path, capsys,
                                                  monkeypatch):
        data = make_dataset(tmp_path, capsys)
        backward = enc.similarity_backward
        monkeypatch.setattr(enc, "similarity_backward", lambda cache, grad_s: tuple(
            np.full_like(grad, np.nan) for grad in backward(cache, grad_s)))
        code = main(["train", "--data", str(data), *FAST])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert "Traceback" not in captured.err
        last = captured.err.strip().splitlines()[-1]
        assert last.startswith("error:") and "non-finite" in last


# each probe: the flags of a nonsense setting and the field its error names
BAD_FLAGS = [
    (["--warmup-epochs", "-3"], "warmup_epochs"),
    (["--train-epochs", "-1"], "train_epochs"),
    (["--alpha", "-1"], "alpha"),
    (["--lr-decay-epoch", "0"], "lr_decay_epoch"),
    (["--lr-cost", "inf"], "lr_cost"),
    (["--lr-model", "nan"], "lr_model"),
    (["--lambda", "0"], "lam"),
    (["--threshold", "2"], "threshold"),
    (["--reserve-ratio", "2"], "reserve_ratio"),
]


class TestSettingChecks:
    @pytest.mark.parametrize("command", ["train", "ablate"])
    @pytest.mark.parametrize("flags,name", BAD_FLAGS,
                             ids=[" ".join(flags) for flags, _ in BAD_FLAGS])
    def test_bad_setting_fails_before_any_epoch(self, tmp_path, capsys,
                                                monkeypatch, command, flags,
                                                name):
        data = make_dataset(tmp_path, capsys)

        def no_epoch(*args):  # a stub that returned would leave the epoch loop spinning
            raise AssertionError("an epoch ran before the settings were checked")

        monkeypatch.setattr(pl, "_epoch", no_epoch)
        arm = ["--arm", "kl"] if command == "ablate" else []
        code = main([command, *arm, "--data", str(data), *FAST, *flags])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        lines = captured.err.strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith(f"error: {name} must be")

    def test_flags_match_the_recorded_surface(self):
        # option strings, dest, type, default, choices and help of every
        # train and ablate flag, as recorded before the flags were derived
        # from TrainConfig
        recorded = json.loads(SURFACE.read_text())
        parser = build_parser()
        commands = next(action for action in parser._actions
                        if isinstance(action, argparse._SubParsersAction)).choices
        for command, table in recorded.items():
            actions = commands[command]._actions
            assert [flag_row(action) for action in actions] == table

    def test_every_setting_is_reachable(self):
        # a TrainConfig field that no flag and no ablation arm sets is a
        # constant in disguise
        arms = {name for arm in ABLATION_ARMS.values() for name in arm}
        settings = {setting.name for setting in dataclasses.fields(pl.TrainConfig)}
        flags = vars(build_parser().parse_args(["train", "--data", "pairs.jsonl"]))
        assert settings - flags.keys() - arms == set()

    @pytest.mark.parametrize("flags,name", [
        (["--noise", "nan"], "noise"),
        (["--d-in-v", "0"], "d_in_v"),
        (["--d-in-t", "0"], "d_in_t"),
        (["--latent-dim", "0"], "latent_dim"),
    ])
    def test_gen_rejects_what_train_cannot_read(self, tmp_path, capsys, flags,
                                                name):
        out = tmp_path / "pairs.jsonl"
        code = main(["gen", "--n", "60", "--classes", "3", "--mrate", "0.2",
                     "--out", str(out), *flags])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        lines = captured.err.strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith(f"error: {name} must be")
        assert not out.exists()

    @pytest.mark.parametrize("flag", ["--size", "--instances"])
    def test_oracle_check_rejects_an_empty_check(self, capsys, flag):
        code = main(["oracle-check", flag, "0"])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        lines = captured.err.strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith(f"error: {flag} must be")


class TestOutputDirectory:
    def test_env_var_resolves_relative_outputs(self, tmp_path, capsys,
                                               monkeypatch):
        monkeypatch.setenv("REMATCH_OUT_DIR", str(tmp_path))
        code = main(["gen", "--n", "60", "--classes", "3", "--mrate", "0.2",
                     "--seed", "0", "--out", "nested/ds.jsonl"])
        capsys.readouterr()
        assert code == 0
        assert (tmp_path / "nested" / "ds.jsonl").exists()

    def test_state_out_creates_its_directory(self, tmp_path, capsys):
        data = make_dataset(tmp_path, capsys)
        state = tmp_path / "runs" / "checkpoint.npz"
        assert main(["train", "--data", str(data), "--state-out", str(state),
                     *FAST]) == 0
        assert state.exists()


class TestConsoleScript:
    def test_installed_entry_point(self, tmp_path):
        # the child process imports the same package as this one and fails
        # on a RuntimeWarning, as pyproject's filterwarnings fails a test
        package_root = Path(rematch.__file__).resolve().parents[1]
        result = subprocess.run(
            [sys.executable, "-W", "error::RuntimeWarning", "-m", "rematch.cli", "oracle-check",
             "--instances", "5", "--size", "3"],
            env=dict(os.environ, PYTHONPATH=str(package_root)),
            capture_output=True, text=True)
        assert result.returncode == 0
        payload = json.loads(result.stdout)
        assert payload["pass"] is True
