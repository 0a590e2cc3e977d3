"""Seeded random instances shared by the test modules."""
from __future__ import annotations

import numpy as np

from effham.cli import LAMBDA_DEFAULTS, three_level_matrix
from effham.floquet import FloquetSpec
from effham.partition import PartitionedHamiltonian, partition_hamiltonian


def lambda_partition() -> PartitionedHamiltonian:
    """Default three-level Raman instance: two ground states, one excited."""
    matrix = three_level_matrix(**LAMBDA_DEFAULTS)
    return partition_hamiltonian(matrix, (0, 1))


def random_hermitian(rng: np.random.Generator, n: int,
                     scale: float = 1.0) -> np.ndarray:
    a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    h = 0.5 * (a + a.conj().T)
    norm = np.linalg.norm(h, 2)
    if norm == 0.0:
        return h
    return scale * h / norm


def antihermitian_shift(rng: np.random.Generator, a: np.ndarray,
                        size: float) -> np.ndarray:
    """``a`` plus a random anti-hermitian matrix of spectral norm ``size``."""
    return a + size * (1j * random_hermitian(rng, a.shape[0]))


def random_unitary(rng: np.random.Generator, n: int) -> np.ndarray:
    a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, r = np.linalg.qr(a)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def gapped_fast_block(rng: np.random.Generator, q: int,
                      gap: float = 1.0) -> np.ndarray:
    """Random hermitian block with every eigenvalue at least ``gap`` away
    from zero (mixed signs), so its inverse has norm at most ``1/gap``."""
    u = random_unitary(rng, q)
    signs = rng.choice([-1.0, 1.0], size=q)
    magnitudes = gap * (1.0 + rng.uniform(0.0, 1.0, size=q))
    block = (u * (signs * magnitudes)) @ u.conj().T
    return 0.5 * (block + block.conj().T)


def make_partition(rng: np.random.Generator, p: int, q: int, eps: float,
                   eps_prime: float, gap: float = 1.0) -> PartitionedHamiltonian:
    """Random partition with the requested coupling scales, exactly.

    The slow block and coupling are rescaled so that
    ``||fast^-1|| * ||slow|| == eps`` and ``||fast^-1|| * ||coupling|| ==
    eps_prime`` up to rounding.
    """
    fast = gapped_fast_block(rng, q, gap)
    inv_norm = 1.0 / np.min(np.abs(np.linalg.eigvalsh(fast)))
    slow = random_hermitian(rng, p, scale=eps / inv_norm)
    coupling = rng.standard_normal((q, p)) + 1j * rng.standard_normal((q, p))
    cnorm = np.linalg.norm(coupling, 2)
    coupling = coupling * (eps_prime / (inv_norm * cnorm))
    return PartitionedHamiltonian(
        slow_block=slow, fast_block=fast, coupling=coupling,
        slow_indices=tuple(range(p)), fast_indices=tuple(range(p, p + q)))


def fast_block_ensemble():
    """Seeded partitions with p 1-4, q 1-8 and three coupling-scale pairs,
    then the same p and pairs at q = 64, followed by the frozen scaling
    instance."""
    rng = np.random.default_rng(31)
    pairs = ((0.02, 0.05), (0.2, 0.3), (0.45, 0.25))
    for p in range(1, 5):
        for q in range(1, 9):
            for eps, eps_prime in pairs:
                yield make_partition(rng, p, q, eps, eps_prime,
                                     gap=float(rng.uniform(0.5, 4.0)))
    for p in range(1, 5):
        for eps, eps_prime in pairs:
            yield make_partition(rng, p, 64, eps, eps_prime,
                                 gap=float(rng.uniform(0.5, 4.0)))
    yield scaling_instance()


def rel_err(got, ref) -> float:
    return float(np.linalg.norm(got - ref) / np.linalg.norm(ref))


def scaling_instance() -> PartitionedHamiltonian:
    """Frozen random 3+3 instance used for inverse-gap scaling tests."""
    rng = np.random.default_rng(7)
    slow = random_hermitian(rng, 3, scale=0.5)
    fast = gapped_fast_block(rng, 3, gap=4.0)
    coupling = 0.5 * (rng.standard_normal((3, 3))
                      + 1j * rng.standard_normal((3, 3)))
    return PartitionedHamiltonian(
        slow_block=slow, fast_block=fast, coupling=coupling,
        slow_indices=(0, 1, 2), fast_indices=(3, 4, 5))


def scale_fast(ph: PartitionedHamiltonian, s: float) -> PartitionedHamiltonian:
    """Same instance with the fast block multiplied by ``s``."""
    return PartitionedHamiltonian(
        slow_block=ph.slow_block, fast_block=s * ph.fast_block,
        coupling=ph.coupling, slow_indices=ph.slow_indices,
        fast_indices=ph.fast_indices)


def drive_ensemble():
    """Seeded periodic drives: d = 2, 4 and 8, each with one and with two
    harmonics, drive frequencies in [7, 18] and order-one norms."""
    rng = np.random.default_rng(53)
    for d in (2, 4, 8):
        for harmonics in (1, 2):
            comps = {0: random_hermitian(rng, d, scale=rng.uniform(0.5, 2.0))}
            for k in range(1, harmonics + 1):
                c = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
                c *= rng.uniform(0.5, 2.0) / (k * np.linalg.norm(c, 2))
                comps[k], comps[-k] = c, c.conj().T
            yield FloquetSpec(dim=d, drive_frequency=float(rng.uniform(7.0, 18.0)),
                              components=comps)


def drive_class_ensemble():
    """Seeded periodic drives shaped like the floquet-drive benchmark's
    classes, two of each: d = 2 with one harmonic of norm 1 at drive
    frequencies in [10, 12]; d = 4 with two harmonics (norms 1.5 and 0.75)
    in [7, 9]; d = 8 with two harmonics (norms 2 and 1) in [14, 18]; the
    static part has norm 1."""
    rng = np.random.default_rng(89)
    for d, harmonics, (lo, hi), norm in ((2, 1, (10.0, 12.0), 1.0),
                                         (4, 2, (7.0, 9.0), 1.5),
                                         (8, 2, (14.0, 18.0), 2.0)):
        for _ in range(2):
            comps = {0: random_hermitian(rng, d)}
            for k in range(1, harmonics + 1):
                c = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
                comps[k] = c * (norm / (k * np.linalg.norm(c, 2)))
                comps[-k] = comps[k].conj().T
            yield FloquetSpec(dim=d, drive_frequency=float(rng.uniform(lo, hi)),
                              components=comps)


def midpoint_propagator(spec: FloquetSpec, start: float, stop: float,
                        count: int) -> np.ndarray:
    """Ordered product of ``count`` midpoint-sampled exponentials covering
    ``[start, stop]``: the second-order scheme ``evolve_periodic`` took at
    256 substeps per period before the fourth-order one, kept as a
    reference that the fourth-order scheme must beat."""
    h = (stop - start) / count
    mids = start + (np.arange(count) + 0.5) * h
    vals, vecs = np.linalg.eigh(spec.hamiltonian_at(mids))
    u = np.eye(spec.dim, dtype=complex)
    for lam, v in zip(vals, vecs):
        u = (v * np.exp(-1j * lam * h)) @ (v.conj().T @ u)
    return u
