"""Every function the benchmark's layer tracer wraps by name still exists.

``perfbench/layers.py`` patches the library from outside, one
``(module, attribute path)`` entry of ``BOUNDARIES`` at a time. A rename or
a deleted method would only show up when a traced benchmark run fails;
this test resolves every entry the way ``Tracer.install`` does, without
installing anything. The count hooks read the results of the functions
they wrap; they are run here on real results, so that a change of
representation fails here and not only in a traced run.
"""

import importlib
import importlib.util
import os

import pytest

LAYERS = os.path.join(os.path.dirname(os.path.dirname(__file__)),
                      "perfbench", "layers.py")


def _layers():
    spec = importlib.util.spec_from_file_location("perfbench_layers", LAYERS)
    layers = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layers)
    return layers


LAYERS_MODULE = _layers()
BOUNDARIES = LAYERS_MODULE.BOUNDARIES


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


def test_count_hooks_read_real_results():
    from sphomotopy import exact_linalg as ela
    from sphomotopy import moduli, sullivan

    dga = sullivan.build(moduli.build_cohomology_algebra(2), 6).dga
    counts = LAYERS_MODULE.Tracer().counts
    w = max(dga.gs.basis_by_weight(6))
    result = dga.d_matrix(6, w)
    LAYERS_MODULE._d_matrix_counts(counts, (dga, 6, w), result)
    mat = result[2]
    assert counts["d_matrix_nnz"] == sum(map(len, mat.rows)) > 0
    assert counts["d_matrix_max_cols"] == mat.ncols == len(result[0])

    rows = dga._d_rows(6, w)[1]
    echelon = ela._echelon_rows(rows)
    LAYERS_MODULE._echelon_counts(counts, (rows,), echelon)
    assert counts["echelon_rows_in"] == len(rows) > 0
    assert counts["echelon_rank_out"] == len(echelon[0]) > 0
    assert counts["max_coeff_bits"] >= 1
    # the reported size is that of the integer rows the kernel returns
    assert counts["max_coeff_bits"] == max(
        v.bit_length() for row in echelon[1] for v in row.values())


def test_d_matrix_read_once_per_cohomology_block(monkeypatch):
    """Each cohomology block assembles its d block once and nothing else
    reads it, so the tracer's ``dga.d_matrix`` counters measure the model's
    own traffic: a second read or a cache in front of the assembly would
    change the count."""
    from sphomotopy import moduli, sullivan
    from sphomotopy.dga import DGA

    calls = {"d_matrix": 0, "cohomology": 0}

    def counted(name):
        original = getattr(DGA, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)
        return wrapper

    target = moduli.build_cohomology_algebra(2)
    for name in calls:
        monkeypatch.setattr(DGA, name, counted(name))
    sullivan.build(target, 8)
    assert calls["d_matrix"] == calls["cohomology"] > 0
