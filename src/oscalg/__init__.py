"""Exact computer algebra for the quadratic Weyl algebra on Q((t)), its
oscillator and Fock representations, and coinvariants at semigroup points."""

from .laurent import LaurentPoly, format_laurent, rat, residue, symplectic_form
from .quadops import (DiagonalSeries, ExpressionError, Poly, QuadraticElement,
                      WittElement, alpha, b, beta, bracket, format_expression,
                      gamma, is_in_sp_plus, maps_into, normal_order_lift, pair,
                      parse_expression, psi, sigma, tau, unit, witt_bracket)
from .fock import (FockVector, apply_quadratic, exp_apply, format_label,
                   format_vector, graded_basis, measure_central_charge,
                   parse_label, virasoro, virasoro_all)
from .coinv import (CoinvReport, FPoint, check_state_space, coinvariants_A,
                    coinvariants_X, default_schedule, fperp_basis, is_in_sp_F,
                    sp_f_generators)
from .verify import (CocycleHandle, HOp, central_scalars, check_central_scalars,
                     check_closed_forms, check_cocycle_defects, check_fit_psi,
                     check_jacobi, check_lift_diagram, check_pullback_sigma,
                     check_splitting, cocycle_defect, d_cocycle,
                     fit_cocycle_coefficients, psi_trace, sigma_hat_defect,
                     verify_all)

__all__ = [name for name in dir() if not name.startswith("_")]
