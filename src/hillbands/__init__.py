"""hillbands: band-gap analysis of operators dual to Hill's equation.

Quotient-lattice arithmetic, dual-matrix assembly, the multi-scale
Schur-complement machinery, eigenvalue branch solvers, band/gap reports and
independent dense/Floquet oracles, all at finite truncation scale.
"""

from .lattice import (FrequencyVector, GroupElement, NullLattice,
                      QuotientLattice, ball_growth_constant, check_diophantine,
                      group_op, null_lattice)
from .potential import (FoldedCoefficients, FourierCoefficients, cosine,
                        eval_potential, exp_decay, fold, multi_cosine,
                        random_phase, validate)
from .operators import (DualMatrix, OperatorSpec, assemble,
                        symmetry_conjugation_check,
                        translation_conjugation_check)
from .scales import (ResonanceProfile, ScaleSchedule, build_schedule,
                     epsilon_budget, kpm_intervals, resonance_profile,
                     resonance_gap_ordering_audit)
from .domains import (Domain, DomainBuilder, SubtractionSystem,
                      build_level_sets, nesting_audit, subtract_stabilize,
                      symmetrize_S, symmetrize_T)
from .schur import (WeightProfile, msa_step, q_g_functions,
                    schur_block_inverse, two_point_extension,
                    verify_weight_lemma, weight_sums)
from .eigensolve import (CffNode, EigenPair, PairBranches, cff_branch_solve,
                         cff_build, leaf, pair_chi, quadratic_dichotomy,
                         solve_pair, solve_simple)
from .band import (BandContext, BandReport, band_curve, decay_audit,
                   gap_edges, gap_resolvent_audit, monotonicity_audit,
                   symmetry_audit)
from .oracle import (bloch_residual, dense_spectrum, floquet_discriminant,
                     floquet_gap_edges, period)

__version__ = "0.1.0"
