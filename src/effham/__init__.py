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

from .errors import *  # noqa: F401,F403
from .partition import *  # noqa: F401,F403
from .bloch import *  # noqa: F401,F403
from .effective import *  # noqa: F401,F403
from .schriefferwolff import *  # noqa: F401,F403
from .floquet import *  # noqa: F401,F403
from .dynamics import *  # noqa: F401,F403
from . import (bloch, dynamics, effective, errors, floquet, partition,
               schriefferwolff)

# Each public name is declared once, in its module's ``__all__``.
__all__ = ["__version__", *errors.__all__, *partition.__all__, *bloch.__all__,
           *effective.__all__, *schriefferwolff.__all__, *floquet.__all__,
           *dynamics.__all__]
