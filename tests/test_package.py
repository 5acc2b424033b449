"""The export lists and the names the tracer wraps resolve, the tracer sees
every span a training step reaches, every exported name has a caller outside
the tests, the README names every run-metrics key, public functions take
nested lists as they take arrays, and importing the package stays cheap."""

import ast
import collections
import importlib
import importlib.util
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import rematch
from rematch import costs, data, encoder, losses, mixture, pipeline, transport

ROOT = Path(__file__).resolve().parent.parent


def test_every_exported_name_resolves():
    assert [name for name in rematch.__all__ if not hasattr(rematch, name)] == []


@pytest.mark.parametrize("module", ["costs", "data", "encoder", "flow_oracle", "losses",
                                    "mixture", "pipeline", "transport"])
def test_every_module_lists_names_that_resolve(module):
    loaded = importlib.import_module(f"rematch.{module}")
    assert loaded.__all__ and [name for name in loaded.__all__ if not hasattr(loaded, name)] == []


def test_the_version_is_the_distribution_version():
    declared = re.search(r'^version = "(.+)"$', (ROOT / "pyproject.toml").read_text(), re.M)
    assert rematch.__version__ == declared[1]


def names_read(source: str) -> set:
    """The names and attributes ``source`` reads, by its syntax tree, so that
    docstrings and comments do not count; an empty set if it is not Python."""
    try:
        tree = ast.parse(source)
    except SyntaxError:
        return set()
    return ({node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
            | {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)})


def test_every_exported_name_has_a_caller_outside_the_tests():
    # a public name only tests call is code the loop never runs: move it into
    # the tests or delete it
    readme = (ROOT / "README.md").read_text()
    fenced = re.findall(r"^```[^\n]*\n(.*?)^```", readme, flags=re.M | re.S)
    inline = re.findall(r"`([^`]+)`", re.sub(r"^```.*?^```", "", readme, flags=re.M | re.S))
    library = [path for path in (ROOT / "src" / "rematch").glob("*.py")
               if path.name != "__init__.py"]
    used = set().union(*map(names_read, fenced + inline), *(
        names_read(path.read_text()) for path in library + sorted((ROOT / "demos").glob("*.py"))))
    assert sorted(set(rematch.__all__) - used) == []


def load_spans():
    """The benchmark's tracer module, ``perfbench/spans.py``."""
    spec = importlib.util.spec_from_file_location("spans", ROOT / "perfbench" / "spans.py")
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans


def test_every_traced_name_resolves():
    # perfbench/spans.py wraps these names where the library looks them up; a
    # cleanup that drops one would break every traced run with AttributeError
    spans = load_spans()
    assert [(module, attr) for module, attr, *_ in spans.TARGETS
            if not hasattr(importlib.import_module(module), attr)] == []


# the spans a training step reaches through a public name, per mode
REACHED = {"discard": ["encoder.similarity", "encoder.similarity_backward",
                       "losses.warmup_loss", "losses.triplet_loss_batch",
                       "losses.per_pair_triplet_losses", "mixture.fit_bmm"]}
REACHED["rematch"] = REACHED["discard"] + ["costs.cost_forward", "costs.cost_net_step",
                                           "costs.reconstruct_pairs", "transport.partial_ot",
                                           "transport.sinkhorn", "transport.normalize_plan",
                                           "losses.rematch_loss"]


@pytest.mark.parametrize("mode", sorted(REACHED))
def test_the_tracer_sees_every_span_a_training_step_reaches(mode):
    # a span that still resolves but that the step no longer calls by that name
    # reads 0 calls in every traced run
    spans = load_spans()
    ds = data.make_benchmark(n=120, classes=5, noise=0.1, mrate=0.4, rng_seed=0)
    cfg = pipeline.TrainConfig(mode=mode, seed=0, warmup_epochs=1, train_epochs=2,
                               lr_decay_epoch=3)
    tracer = spans.Tracer()
    with tracer.installed():
        payload = pipeline.run_experiment(cfg, ds)
    calls = collections.Counter(span[spans.NAME] for span in tracer.spans)
    assert [name for name in REACHED[mode] if calls[name] == 0] == []
    if mode == "discard":  # which trains no cost map and solves no transport
        assert [name for name in calls if name.startswith(("costs.", "transport."))] == []
    # every solve the epochs count is one sinkhorn span whose note read its iterations
    solves = [span[spans.NOTE] for span in tracer.spans
              if span[spans.NAME] == "transport.sinkhorn"]
    assert len(solves) == sum(record.get("transport", {}).get("solves", 0)
                              for record in payload["epochs"])
    assert all(note["iterations"] >= 1 for note in solves)


@pytest.mark.parametrize("mode", ["naive", "discard", "rematch"])
def test_the_readme_names_every_payload_key(mode):
    # the run-metrics paragraph is where a payload reader looks a key up
    readme = (ROOT / "README.md").read_text()
    section = readme[readme.index("**Run metrics"):readme.index("**Checkpoint")]
    ds = data.make_benchmark(n=120, classes=4, noise=0.1, mrate=0.4, rng_seed=5)
    cfg = pipeline.TrainConfig(mode=mode, seed=0, warmup_epochs=1, train_epochs=1,
                               lr_decay_epoch=3, batch_size=32)
    payload = pipeline.run_experiment(cfg, ds)
    keys = set(payload).union(*payload["epochs"])
    assert sorted(keys - set(re.findall(r"`([^`]+)`", section))) == []


def test_star_import_binds_every_exported_name():
    namespace = {}
    exec("from rematch import *", namespace)
    assert set(rematch.__all__) <= namespace.keys()


def array_like_cases() -> dict:
    """Each public function that converts its array arguments itself, as a
    call and the arrays it takes."""
    rng = np.random.default_rng(0)
    s, feats, pool = rng.uniform(-1, 1, (4, 4)), rng.normal(size=(4, 3)), rng.normal(size=(3, 3))
    params, theta = encoder.init_params(3, 3, 2, rng), costs.CostNetParams()
    _, cache = encoder.similarity(params, feats, pool[[0, 1, 2, 0]])
    raw_losses = rng.gamma(2.0, 0.1, 40)
    solver, marginals = transport.SinkhornConfig(lam=0.5), (np.full(4, 0.25), np.full(4, 0.25))
    bmm = mixture.fit_bmm(raw_losses)
    return {
        "similarity": (lambda v, t: encoder.similarity(params, v, t)[0], feats, feats[::-1]),
        "similarity_backward": (lambda grad: encoder.similarity_backward(cache, grad), s),
        "cost_forward": (lambda sims: costs.cost_forward(sims, theta), s),
        "cost_forward-work": (lambda sims: costs.cost_forward(sims, theta,
                                                              work=losses._Workspace()), s),
        "cost_grads": (lambda sims: costs.cost_grads(sims, theta), s),
        "reconstruct_pairs": (lambda v, p: costs.reconstruct_pairs(v, p, 0.5, 0), feats, pool),
        "cost_net_step": (lambda sims: costs.cost_net_step(theta, sims, 0.1), np.diag(s)),
        "matching_probs": (lambda sims: losses.matching_probs(sims, 0.5), s),
        "rematch_loss": (lambda v2t, t2v, sims: losses.rematch_loss(v2t, t2v, sims, 0.5),
                         *transport.normalize_plan(rng.uniform(size=(4, 4))), s),
        "rematch_loss-work": (lambda v2t, t2v, sims: losses.rematch_loss(
            v2t, t2v, sims, 0.5, work=losses._Workspace()),
            *transport.normalize_plan(rng.uniform(size=(4, 4))), s),
        "BetaMixture.normalize": (bmm.normalize, raw_losses),
        "fit_bmm": (mixture.fit_bmm, raw_losses),
        "posterior": (lambda x: mixture.posterior(bmm, x), bmm.normalize(raw_losses)),
        "partition": (mixture.partition, rng.uniform(size=10)),
        "normalize_plan": (transport.normalize_plan, rng.uniform(size=(3, 4))),
        "normalize_plan-work": (lambda plan: transport.normalize_plan(
            plan, work=losses._Workspace()), rng.uniform(size=(3, 4))),
        "sinkhorn-work": (lambda cost, p, q: transport.sinkhorn(
            cost, p, q, cfg=solver, work=losses._Workspace()).plan, s + 1, *marginals),
        "extend_partial-work": (lambda cost, p, q: transport.extend_partial(
            cost, p, q, rho=0.5, work=losses._Workspace()), s, *marginals),
        "recall_at_k": (data.recall_at_k, rng.uniform(size=(12, 12))),
    }


@pytest.mark.parametrize("name", array_like_cases())
def test_nested_lists_work_as_arrays(name):
    call, *arrays = array_like_cases()[name]
    np.testing.assert_equal(call(*(array.tolist() for array in arrays)), call(*arrays))


def test_import_loads_no_heavy_optional_modules():
    # the library needs only numpy; networkx or any part of scipy would add
    # 0.1-0.4 s to every cold start
    probe = ("import sys, rematch; print(sorted(m for m in sys.modules "
             "if m.split('.')[0] in ('networkx', 'scipy')))")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    result = subprocess.run([sys.executable, "-c", probe], env=env,
                            capture_output=True, text=True, timeout=60)
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "[]"
