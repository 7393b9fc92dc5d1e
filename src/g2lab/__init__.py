"""g2lab: exact certification of the 14-dimensional algebra inside so(7), the
octonionic cross product it stabilizes, and numerically verified warped-product
constructions of G2 metrics from 6-dimensional data.

The exact layer (rational arithmetic, zero-residual certificates):

    rational, subspaces     exact linear algebra, form signs, canonical subspaces
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

__version__ = "0.1.0"
