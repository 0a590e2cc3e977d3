"""Public API: one declaration per name, no unlisted keyword values."""
from __future__ import annotations

import importlib
import inspect

import effham
from effham import matrixkit

# Every parameter with a default across the public functions, as
# (module.function, parameter, default).  A new keyword value is a new
# configuration to test, so adding one means editing this list.
KEYWORD_VALUES = [
    ("bloch.iterate_bloch", "tol", 1e-12),
    ("bloch.iterate_bloch", "max_iter", 64),
    ("bloch.iterate_bloch", "seed", None),
    ("bloch.iterate_bloch", "require_convergence", True),
    ("floquet.monodromy", "steps", None),
    ("floquet.monodromy", "_report", None),
    ("floquet.quasi_energies_monodromy", "steps", None),
    ("floquet.quasi_energies_diag", "cutoff", None),
    ("floquet.quasi_energies_effective", "method", "adiabatic"),
    ("floquet.quasi_energies_effective", "cutoff", None),
    ("dynamics.populations", "indices", None),
    ("matrixkit.as_matrix", "name", "matrix"),
    ("matrixkit.require_hermitian", "tol", matrixkit.HERM_TOL),
    ("matrixkit.require_hermitian", "name", "matrix"),
]


def _public_functions():
    for module in (effham, matrixkit):
        for name in module.__all__:
            fn = getattr(module, name)
            if inspect.isfunction(fn):
                yield fn


def test_keyword_values_are_pinned():
    found = [(f"{fn.__module__.removeprefix('effham.')}.{fn.__name__}",
              param.name, param.default)
             for fn in _public_functions()
             for param in inspect.signature(fn).parameters.values()
             if param.default is not inspect.Parameter.empty]
    assert found == KEYWORD_VALUES


def test_package_names_are_their_modules_objects():
    names = effham.__all__
    assert names[0] == "__version__"
    assert len(set(names)) == len(names)
    assert "matrixkit" not in names
    for name in names[1:]:
        obj = getattr(effham, name)
        module = importlib.import_module(obj.__module__)
        assert name in module.__all__
        assert getattr(module, name) is obj
