"""The package's export list and the names the tracer wraps resolve, and
importing the package stays cheap."""

import importlib
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import rematch

ROOT = Path(__file__).resolve().parent.parent


def test_every_exported_name_resolves():
    assert [name for name in rematch.__all__ if not hasattr(rematch, name)] == []


def test_every_traced_name_resolves():
    # perfbench/spans.py wraps these names where the library looks them up; a
    # cleanup that drops one would break every traced run with AttributeError
    spec = importlib.util.spec_from_file_location("spans", ROOT / "perfbench" / "spans.py")
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    assert [(module, attr) for module, attr, *_ in spans.TARGETS
            if not hasattr(importlib.import_module(module), attr)] == []


def test_star_import_binds_every_exported_name():
    namespace = {}
    exec("from rematch import *", namespace)
    assert set(rematch.__all__) <= namespace.keys()


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
