"""Effective slow-sector Hamiltonians for partitioned hermitian systems.

The package splits a hermitian operator into a slow sector, a strongly
gapped fast sector, and the coupling between them, then derives effective
operators on the slow sector alone: leading-order (adiabatic) elimination,
fixed-point and perturbative solutions of the quadratic block equation for
the invariant-subspace embedding, hermitization with certified quadratic
eigenvalue accuracy, and the equivalent block-rotation (Schrieffer-Wolff)
picture.  The same machinery applies to periodically driven systems through
the truncated harmonic-lattice operator, giving quasi-energies three
independent ways, and a small dynamics layer supports population tracking,
ripple filtering, and secular-shift measurements.
"""
from __future__ import annotations

__version__ = "0.1.0"

from .errors import (
    ConvergenceFailure,
    CutoffTooSmall,
    DefectiveMatrix,
    Diverged,
    EmptyPartition,
    IndexOutOfRange,
    InsufficientPeaks,
    NonUnitaryMonodromy,
    NonUnitaryStep,
    NotHermitian,
    NotPositiveDefinite,
    OracleAmbiguous,
    SeriesDiverging,
    ShapeMismatch,
    SingularFastBlock,
    SpectraOverlap,
    ToolkitError,
    WidePrincipalAngle,
    WindowTooSmall,
    ZeroVector,
)
from .partition import (
    CouplingScales,
    PartitionedHamiltonian,
    coupling_scales,
    invariance_radius,
    partition_hamiltonian,
    spectral_gap,
)
from .bloch import (
    BlochEmbedding,
    adiabatic_embedding,
    bloch_map,
    bloch_residual,
    embedding_from_matrix,
    exact_embedding,
    iterate_bloch,
    perturbative_bloch,
)
from .effective import (
    EffectiveOperator,
    adiabatic_hamiltonian,
    hermitian_effective,
    nonhermitian_effective,
    pair_spectra,
    reconstruct_full_eigenvector,
    second_order_hamiltonian,
)
from .schriefferwolff import (
    SWGenerator,
    block_offdiagonal_norm,
    embedding_from_generator,
    first_order_generator,
    generator_from_embedding,
    rotation_from_block,
    sw_first_order_hamiltonian,
    tanh_block,
)
from .floquet import (
    FloquetSpec,
    QuasiEnergySet,
    TruncatedFloquetOperator,
    build_floquet,
    first_order_floquet_hamiltonian,
    floquet_partition,
    fold_quasienergy,
    monodromy,
    quasi_energies_diag,
    quasi_energies_effective,
    quasi_energies_monodromy,
    restricted_inverse_series,
)
from .dynamics import (
    StateVector,
    TimeSeries,
    evolve_constant,
    evolve_periodic,
    interior_peak_times,
    low_pass,
    populations,
    secular_shift,
)

__all__ = [
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
    "reconstruct_full_eigenvector", "pair_spectra",
    # schriefferwolff
    "SWGenerator", "rotation_from_block", "generator_from_embedding",
    "first_order_generator", "tanh_block", "embedding_from_generator",
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
