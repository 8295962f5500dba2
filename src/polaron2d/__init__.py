"""N-independent ground-state energy bounds for the 2D Fermi polaron.

An impurity of mass ratio M immersed in an ideal Fermi gas with two-body
point interactions of binding energy E_B < 0 admits an energy lower bound
uniform in the particle number once M exceeds a critical mass ratio.
This package computes that bound, locates the critical mass, estimates
the spectral coupling constant C relevant below the threshold, and
verifies the scalar identities and inequalities behind the construction.
"""

from .corefuncs import (KernelPoint, ModelParams, QuadratureError,
                        QuadratureSpec, alpha_m, beta, beta_kink, bound_lhs,
                        bound_lhs_alt, coupling_alpha, a_scale,
                        envelope_cutoff_integral, j_weight, kernel_envelope)
from .solvers import (BoundResult, BracketFailure, CutoffChoice,
                      NonConvergence, RangeError, RootFindSpec,
                      SupercriticalMass, critical_mass, optimize_lambda,
                      solve_gamma, solve_mu)
from .cconstant import (BoundaryMaximizerWarning, CEstimate, CSearchConfig,
                        GridSpec, TailBoundExceeded, c_integrand,
                        coarse_config, estimate_C, fine_config,
                        inner_integral, inner_integral_tail_bound,
                        scan_C_vs_M, weight)
from .verify import (CaseResult, VerificationReport, run_suite,
                     verify_bound_chain, verify_disk_area,
                     verify_momentum_bounds, verify_rearrangement,
                     verify_sigma_minus, verify_tail_integral,
                     verify_u_integral_bound)

__version__ = "0.1.0"
