"""Exact monomial calculus for twisted multi-isometry algebras, their
multipullback sphere and projective-space quotients, strong connections,
line-bundle projectors, and truncated-Fock numerical invariants."""

from .algebra import AlgebraElement, Context, ContextMismatch, SizeOverflow, generator, unit
from .bundles import (ProjectorMatrix, TensorElement, chern_galois_projector,
                      projector_diagonal, strong_connection, verify_connection)
from .coeff import Coeff, FloatCoeff
from .fock import (ClassInvariant, SparseOperator, UnstableInvariant,
                   class_invariant, fock_generator, relation_residual)
from .phases import DimensionMismatch, ThetaMatrix
from .quotients import (IncompatibleTuple, LiftRounding, MultipullbackTuple,
                        cocycle_check, glue, is_compatible, pi_i_j, sigma_i)

__version__ = "0.1.0"
