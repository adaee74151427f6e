"""boxball: exact combinatorics and dynamics of box-ball systems.

Crystals and the combinatorial R, the birational R, infinite and periodic
box-ball evolutions, the KKR bijection and its linearization, ultradiscrete
tau functions, tropical Riemann theta functions and the tropical periodic
Toda lattice.  All arithmetic is exact (integers and fractions).
"""

from boxball.crystal import (
    CrystalElement,
    TensorElement,
    RResult,
    comb_R,
    energy_H,
    eps_phi,
    kashiwara,
    tensor_eps_phi,
    tensor_kashiwara,
)

__all__ = [
    "CrystalElement",
    "TensorElement",
    "RResult",
    "comb_R",
    "energy_H",
    "eps_phi",
    "kashiwara",
    "tensor_eps_phi",
    "tensor_kashiwara",
]

__version__ = "0.1.0"
