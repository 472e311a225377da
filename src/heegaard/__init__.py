"""Exact monomial calculus for twisted multi-isometry algebras, their
multipullback sphere and projective-space quotients, strong connections,
line-bundle projectors, and truncated-Fock numerical invariants."""

from .algebra import (AlgebraElement, Context, ContextMismatch, SizeOverflow,
                      compact_matrix_unit, generator, sphere_defect, unit)
from .bundles import (ConjugationWitness, NonzeroTwist, ProjectorMatrix,
                      TensorElement, chern_galois_projector, h_tail,
                      projector_diagonal, pullback_hom, pullback_projector,
                      strong_connection, verify_connection)
from .coeff import Coeff, FloatCoeff
from .fock import (ClassInvariant, SparseOperator, UnstableInvariant,
                   class_invariant, fock_generator, relation_residual)
from .grading import (GradedComponent, degree_decompose, extend_hom,
                      fixed_point_context, fixed_quotient_context,
                      invariant_expectation, kappa_gen_inv, kappa_gen_map,
                      phi_iso, phi_iso_inv, psi_map, slot_degree)
from .phases import (DimensionMismatch, ThetaMatrix, cocycle_phase,
                     kappa_check_matrix, kappa_inv_matrix, kappa_matrix)
from .quotients import (CocycleReport, IncompatibleTuple, LiftRounding,
                        MultipullbackTuple, cocycle_check, glue, is_compatible,
                        pi_i_j, sigma_i, sphere_reduce)

__version__ = "0.1.0"
