"""Numerical toolkit for two-dimensional models with factorizing S-matrices.

Builds a model from a two-particle scattering function, realizes the
twisted Fock space and its wedge-local fields on a rapidity grid, and
verifies the computable identities and bounds of the construction:
exchange-algebra relations, wedge locality, recovery of the factorizing
S-matrix, and the trace-norm / nuclearity estimates.
"""

from .errors import (ConfigError, ConvergenceError, GridError, ModelError,
                     OrderingError, PoleProximityError,
                     QuadratureOverflowError, StripError,
                     SupportOverflowError, TailError, TruncationCapError,
                     WedgeQFTError)
from .fock import (FockVector, PoincareElement, RapidityGrid, WaveFunction1,
                   annihilate, apply_dn, check_zf_relations, create,
                   modular_boost, poincare_apply, random_fock,
                   random_wavefunction, reflect_gamma, reflect_j, symmetrize)
from .fields import (Bump1D, Bump2D, Gaussian1D, Gaussian2D, field_phi,
                     field_phi_prime, in_wedge, mass_shell,
                     nonlocality_witness, sample_mass_shell, timezero_field)
from .locality import (refinement_study, verify_contour_identity,
                       verify_operator_commutator)
from .nuclearity import (KernelOperator, analytic_trace_bound, find_s_min,
                         free_bose_bound, modular_trace_norm, partition_bound,
                         sigma, singular_values, trace_norm_estimate,
                         xi_bound_distal)
from .scattering import (OrderedWavePacket, in_state, moller_multiplier,
                         out_state, random_ordered_packet, recover_smatrix,
                         smatrix_factor)
from .sfunction import (ScatteringFunction, build_model, evaluate, kappa,
                        strip_sup_norm, verify_relations)

__version__ = "0.1.0"
