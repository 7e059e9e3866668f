"""dirac-zero-lab: desk-scale numerics for zero modes of the massless Dirac operator.

Modules
-------
clifford    exact Pauli/Dirac matrices and contraction identities
field       periodic grid, spinor fields, transforms, norms
freeop      alpha.D and its inverse A (multiplier and quadrature forms)
kernelnorm  empirical operator-norm sweeps for weighted kernels
potential   Hermitian matrix potentials and the magnetic zero-mode example
bootstrap   exact rational decay-iteration engine
resonance   fixed-point spectra, decay fits, threshold classification
acceptance  the release-gating check suite
cli         command-line driver (`dirac-zero-lab`)
"""

from . import acceptance, bootstrap, clifford, field, freeop, kernelnorm, potential, resonance

__version__ = "0.1.0"

__all__ = [
    "acceptance",
    "bootstrap",
    "clifford",
    "field",
    "freeop",
    "kernelnorm",
    "potential",
    "resonance",
]
