"""blocksplit: fixed points of T0 composed with a weighted mean of averaged
operators, computed while re-evaluating only a block of the operators per
iteration and recycling stale evaluations."""

from .operators import (AveragedOp, NonFiniteError, RowStack, apply,
                        as_point, certify_averaged, compose, identity_op,
                        relax, scaling_op)
from .schedules import (Block, BlockSchedule, CoveringError,
                        check_concentrating, last_activation,
                        lag_identity_check, make_cyclic, make_explicit,
                        make_full, make_quasicyclic_random, mu_row,
                        schedule_from_spec, validate_covering)
from .solver import (SeededDecayErrors, SolverConfig, SolverResult,
                     TraceRecord, fejer_audit, fixed_point_residual,
                     linear_rate_audit, run, run_economical)
from .calculus import (AffineSubspace, Ball, Box, FullSpace, Halfspace,
                       Hyperplane, LinearMap, Singleton, SmoothScalar,
                       grad_distance_penalty, half_square, huber,
                       projector_op, prox_l1, row_map, square)
from .problems import (BuiltProblem, alternating_projections,
                       build_cohypomonotone, build_common_fixed_point,
                       build_feasibility_relaxation, build_forward_backward,
                       build_prox_grad, build_residual_system,
                       lasso_problem, least_squares_feasibility,
                       logistic_problem, normal_cone_resolvent,
                       quadratic_resolvent)
from .harness import (OracleResult, oracle_least_squares,
                      oracle_prox_grad_reference, run_experiment)

__version__ = "0.1.0"
