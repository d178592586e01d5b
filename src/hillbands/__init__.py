"""hillbands: band-gap analysis of operators dual to Hill's equation.

Quotient-lattice arithmetic, dual-matrix assembly, the multi-scale
Schur-complement machinery, eigenvalue branch solvers, band/gap reports and
independent dense/Floquet oracles, all at finite truncation scale.
"""

__version__ = "0.1.0"
