"""perifront: spectral objects, Cauchy simulation, front diagnostics and
sub/supersolution certification for monostable cooperative
reaction-diffusion-advection systems in 1-D periodic media."""

from .grid import (CellGrid, PeriodicField, OperatorSpec, BandedMatrix,
                   make_cell_grid, assemble_tilted_operator,
                   solve_cyclic_banded, first_derivative)
from .eigen import (EigenPair, CoupledEigenPair, principal_eig_scalar,
                    principal_eig_coupled, coupled_perron)
from .dispersion import (Dispersion, VectorEigenfunction,
                         EigenfunctionDerivative, boundary_speeds_A6)
from .models import (PolyH, ReactionModel, CompetitionSpec,
                     TransformedCompetition, HypothesisReport,
                     check_hypotheses, competition_steady_states,
                     competition_to_cooperative, inverse_transform,
                     check_competition_assumptions, make_model,
                     make_competition_spec)
from .sim import (WindowGrid, SimState, StepperConfig, Trajectory, Stepper,
                  build_initial_front_like, run)
from .fronts import (FrontProfile, FitResult, ShiftResult, front_position,
                     measure_speed, extract_profile, fit_decay,
                     shift_distance, convergence_metric,
                     log_derivative_diagnostics, component_ratio_bound,
                     golden_section_min)
from .certify import (CandidateSolution, CertReport, BoundaryCheck,
                      build_sub_supercritical, build_sub_critical,
                      build_super_linearized, build_super_linearized_critical,
                      build_stability_sandwich, find_sandwich_seed,
                      residual_sign_check, compute_varrho, smoothstep_cutoff)
from . import errors

__version__ = "0.1.0"
