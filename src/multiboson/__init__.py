"""Exactly solvable multiboson cluster models.

Ladder (sl(2)-type) representations built from l-boson clusters on a
truncated Fock space, one- and two-mode quadratic-Casimir Hamiltonians
diagonalized through classical orthogonal polynomials, coherent-state
calculus, and time evolution of occupation observables -- every closed form
cross-checked against an independent tridiagonal eigensolver.
"""

__version__ = "0.1.0"

from .errors import (BoundaryAmbiguityError, NoBoundStateError,
                     NumericalFailureError, ParameterError, TruncationOverflowError,
                     UnsupportedCaseError, UnsupportedElementError)
from .orthopoly import (ContinuousDualHahn, DualHahn, Laguerre, Meixner,
                        MeixnerPollaczek, PolyFamily, SpectralMeasure, gram_check,
                        gram_matrix, hyp0f1, hyp3f2_terminating)
from .jacobi import Chain, JacobiOperator, atom_eigenvector, oracle_eigh, oracle_eigs
from .rep import (MultibosonRep, OneModeSector, alpha0, alpha_minus,
                  build_generators_full, casimir_value, sector_coeffs,
                  sector_matrices)
from .bogoliubov import (GroupElement, action_matrix, implementer, meixner_c,
                         multiply)
from .onemode import OneModeHamiltonian, classify, eigenvectors_discrete, evolve
from .twomode import (CBlock, DBlock, TwoModeHamiltonian, TwoModeRep,
                      UVWParams, build_h_matrix, canonical_matrix, hc_block_jacobi,
                      hc_chain, hc_eigenvectors_discrete, hc_truncation_check,
                      hd_block_jacobi, hd_chain, hd_eigenvectors, uvw_params)
from .coherent import (SU11Element, coherent_amplitudes,
                       disc_eigenfunction, holo_apply, kernel, radial_measure,
                       su11_flow)
from .evolution import (CanonicalInteraction, FullModel, ObservableSeries,
                        basis_state, evolve_full, observables, preset,
                        run_series)
