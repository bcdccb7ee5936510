"""Every function the benchmark's layer tracer wraps by name still exists.

``perfbench/layers.py`` patches the library from outside, one
``(module, attribute path)`` entry of ``BOUNDARIES`` at a time. A rename or
a deleted method would only show up when a traced benchmark run fails;
this test resolves every entry the way ``Tracer.install`` does, without
installing anything.
"""

import importlib
import importlib.util
import os

import pytest

LAYERS = os.path.join(os.path.dirname(os.path.dirname(__file__)),
                      "perfbench", "layers.py")


def _boundaries():
    spec = importlib.util.spec_from_file_location("perfbench_layers", LAYERS)
    layers = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layers)
    return layers.BOUNDARIES


BOUNDARIES = _boundaries()


@pytest.mark.parametrize("module, path, span", BOUNDARIES,
                         ids=[span for _, _, span in BOUNDARIES])
def test_boundary_resolves(module, path, span):
    owner = importlib.import_module(module)
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part)
    if isinstance(owner, type):
        # the tracer reads the class dict: an inherited name would be
        # patched on the wrong class
        assert attr in owner.__dict__, f"{module}.{path} is gone ({span})"
        target = owner.__dict__[attr]
    else:
        assert hasattr(owner, attr), f"{module}.{path} is gone ({span})"
        target = getattr(owner, attr)
    assert callable(target)


def test_boundaries_are_listed():
    # an empty list would turn the parametrized test above into a skip
    assert BOUNDARIES
