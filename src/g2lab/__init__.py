"""g2lab: exact certification of the 14-dimensional algebra inside so(7), the
octonionic cross product it stabilizes, and numerically verified warped-product
constructions of G2 metrics from 6-dimensional data.

The exact layer (rational arithmetic, zero-residual certificates):

    rational, subspaces     dense exact linear algebra and canonical subspaces
    embeddings              the sl(3) and complement embeddings, h-map, lifts
    threeform, octonions    the invariant 3-form, cross product, octonion table
    spin8                   the two so(7) copies inside so(8)

The numerical layer (pointwise stencils, convergence-order reporting):

    fields, curvature       stencils, forms, frames, domains; Riemann/Ricci
    killing                 quotient-data condition checkers and their oracles
    gibbons, g2construct    the 4- and 7-dimensional metric builders + verifiers
    hypersurfaces           almost-Hermitian checks of hypersurfaces in R^7
    gallery, suites, cli    named fixtures, check suites, command-line runner
"""

from .embeddings import (G2Basis, Sl3Param, g2_basis, h_map, hat3,
                         intertwiner_solve, lift_gtilde, m_embed, sl3_embed,
                         so6_to_so7)
from .fields import Domain, StencilConfig
from .g2construct import (G2MetricBundle, MonopoleData, g2_build_thm1,
                          holonomy_residual, monopole_residual,
                          torsionfree_residual, weak_monopole_residual)
from .gibbons import GHData, dirac_potential, gh_build
from .killing import (KillingData, RhoConnectionSetup, da_conditions_check,
                      killing_conditions_check, rho_torsion_check)
from .octonions import (CrossProduct7, OctonionTable, associative_test,
                        associator, octonion_from_cross, standard_cross,
                        standard_octonions, torsion_cross)
from .rational import ExactMatrix, bracket, trace_form
from .subspaces import Subspace
from .threeform import ThreeForm, invariant_threeform, phi_cross_duality, star_phi

__version__ = "0.1.0"

__all__ = [
    "ExactMatrix", "bracket", "trace_form",
    "Subspace",
    "Sl3Param", "G2Basis", "hat3", "sl3_embed", "so6_to_so7",
    "m_embed", "h_map", "g2_basis", "lift_gtilde", "intertwiner_solve",
    "ThreeForm", "invariant_threeform", "star_phi", "phi_cross_duality",
    "CrossProduct7", "OctonionTable", "torsion_cross", "octonion_from_cross",
    "associator", "associative_test", "standard_cross", "standard_octonions",
    "Domain", "StencilConfig",
    "KillingData", "RhoConnectionSetup",
    "killing_conditions_check", "da_conditions_check", "rho_torsion_check",
    "GHData", "dirac_potential", "gh_build",
    "MonopoleData", "G2MetricBundle", "g2_build_thm1",
    "monopole_residual", "weak_monopole_residual", "torsionfree_residual",
    "holonomy_residual",
]
