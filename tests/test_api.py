"""Public API: one declaration per name, no unlisted names or keyword
values."""
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

# The public names, in declaration order.  One name per idea: a second
# spelling of something already listed does not get added here.
PACKAGE_NAMES = [
    "__version__",
    # errors
    "ToolkitError", "NotHermitian", "ConvergenceFailure", "DefectiveMatrix",
    "NotPositiveDefinite", "SpectraOverlap", "ShapeMismatch",
    "EmptyPartition", "SingularFastBlock", "Diverged", "OracleAmbiguous",
    "CutoffTooSmall", "SeriesDiverging", "NonUnitaryMonodromy",
    "NonUnitaryStep", "ZeroVector", "IndexOutOfRange", "WindowTooSmall",
    "InsufficientPeaks", "WidePrincipalAngle",
    # partition
    "PartitionedHamiltonian", "CouplingScales", "partition_hamiltonian",
    "coupling_scales", "invariance_radius", "spectral_gap",
    # bloch
    "BlochEmbedding", "bloch_map", "bloch_residual", "adiabatic_embedding",
    "iterate_bloch", "perturbative_bloch", "exact_embedding",
    "embedding_from_matrix",
    # effective
    "EffectiveOperator", "adiabatic_hamiltonian", "nonhermitian_effective",
    "hermitian_effective", "second_order_hamiltonian",
    "reconstruct_full_eigenvector",
    # schriefferwolff
    "SWGenerator", "rotation_from_block", "generator_from_embedding",
    "first_order_generator", "embedding_from_generator",
    "sw_first_order_hamiltonian", "block_offdiagonal_norm",
    # floquet
    "FloquetSpec", "TruncatedFloquetOperator", "QuasiEnergySet",
    "build_floquet", "floquet_partition", "fold_quasienergy", "monodromy",
    "quasi_energies_monodromy", "quasi_energies_diag",
    "quasi_energies_effective", "restricted_inverse_series",
    "first_order_floquet_hamiltonian",
    # dynamics
    "StateVector", "TimeSeries", "evolve_constant", "evolve_periodic",
    "populations", "low_pass", "interior_peak_times", "secular_shift",
]
MATRIXKIT_NAMES = [
    "EigenDecomposition", "as_matrix", "spectral_norm", "hermitize",
    "require_hermitian", "hermitian_eig", "general_eig", "posdef_roots",
    "sylvester_solve", "pair_eigenvalues",
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


def test_public_names_are_pinned():
    assert effham.__all__ == PACKAGE_NAMES
    assert matrixkit.__all__ == MATRIXKIT_NAMES


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
