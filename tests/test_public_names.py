"""Every name a pjinv module exports exists.

The benchmark's tracer (perfbench/spans.py) looks up each name in each
module's ``__all__``, so a stale entry would break a traced run.
"""

import importlib

import pytest

MODULES = ("cli", "hadamard", "indices", "invert", "linalg", "maps",
           "properties", "pseudojac")


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(f"pjinv.{name}")
    assert module.__all__
    for attr in module.__all__:
        assert getattr(module, attr, None) is not None, f"pjinv.{name}.{attr}"
