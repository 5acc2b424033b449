"""The package's export list: every advertised name resolves."""

import rematch


def test_every_exported_name_resolves():
    assert [name for name in rematch.__all__ if not hasattr(rematch, name)] == []


def test_star_import_binds_every_exported_name():
    namespace = {}
    exec("from rematch import *", namespace)
    assert set(rematch.__all__) <= namespace.keys()
