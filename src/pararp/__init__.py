"""Exact order-n parafermion algebra on an even lattice with numerical
reflection-positivity verification of Gibbs trace functionals."""

from .exponents import (
    ExponentVector,
    circ,
    degree,
    unit_vector,
    zero_vector,
)
from .algebra import (
    Polynomial,
    Side,
    SideClass,
    adjoint,
    canonical_product,
    classify,
    gauge_apply,
    reflect,
    sum_polynomials,
    zeta_power,
    omega_power,
)
from .representation import (
    Representation,
    build_generators,
    decompose,
    sector_blocks,
    to_matrix,
    trace_monomial,
    verify_yamazaki,
)
from .hamiltonian import (
    CouplingRule,
    CouplingTable,
    HamiltonianSpec,
    assemble,
    baxter,
    build_h0,
    check_symmetries,
    load_spec,
    validate_couplings,
)
from .rp import (
    RPReport,
    check_rp,
    conservation_law_check,
    counterexample_check,
    counterexample_f,
    family_check,
    gram_psd,
    matrix_exp,
    rp_bounds_check,
)

__version__ = "0.1.0"
