"""The pin checker: a moved figure fails its pin, and the failure says what moved."""

import json

import numpy as np
import pytest

import rematch.costs as costs
from pinned import PINS, assert_pinned, describe_difference


def test_difference_names_paths_and_largest_changes():
    old = {"epochs": [{"loss": 2.0, "phase": "warmup"}, {"loss": 1.0, "phase": "train"}],
           "test": {"rsum": 240.0}, "seed": 3}
    new = {"epochs": [{"loss": 2.0, "phase": "warmup"}, {"loss": 1.5, "phase": "eval"}],
           "test": {"rsum": 240.0 + 1e-9}, "seed": 3, "extra": True}
    lines = describe_difference(json.dumps(old), json.dumps(new))
    assert lines[0] == "4 key paths differ; the first 4:"
    assert "  epochs[1].loss: 1.0 -> 1.5" in lines
    assert "  epochs[1].phase: 'train' -> 'eval'" in lines
    assert "  extra: '<absent>' -> True" in lines
    assert "  epochs: abs 0.5 at epochs[1].loss, rel 0.5 at epochs[1].loss" in lines
    assert any(line.startswith("  test: abs 1e-09 at test.rsum, rel 4.17e-12")
               for line in lines)


def test_same_values_in_another_layout_are_named_as_such():
    assert describe_difference('{"a": [1.0]}', '{"a":[1.0]}') == [
        "the texts differ, but every value agrees"]


def test_one_ulp_in_the_cost_map_fails_the_pin_naming_the_moved_keys(monkeypatch):
    cost_forward = costs.cost_forward
    monkeypatch.setattr(costs, "cost_forward",
                        lambda s, theta, **kw: np.nextafter(cost_forward(s, theta, **kw),
                                                            np.inf))
    with pytest.raises(AssertionError) as failure:
        assert_pinned("rematch-adam", PINS["rematch-adam"]())
    message = str(failure.value)
    assert "pin 'rematch-adam' differs" in message
    assert "largest float change per top-level key:" in message
    assert "\n  epochs[" in message  # the cost map reaches the train epochs
