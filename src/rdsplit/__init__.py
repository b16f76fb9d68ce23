"""Structure-preserving Strang splitting for reaction-diffusion systems.

Second-order operator splitting for systems with one reversible reaction
under detailed balance. Every step keeps concentrations strictly positive,
conserves the reaction invariants and per-species diffusion mass, and
dissipates the discrete free energy.
"""

from .diffusion import (DiffusionLaw, diffusion_energy, etd_step,
                        nonlinear_cn_step, semi_implicit_predictor)
from .errors import (DomainError, InvalidConfig, InvalidInput, NonConvergence,
                     PositivityViolation, RdsplitError)
from .grid import (FaceField, Field, Grid, average_to_faces, divergence,
                   face_inner_product, gradient, inner_product, laplacian,
                   read_field_csv, weighted_divgrad, write_field_csv)
from .harness import (ConvergenceRow, ExperimentConfig, cubic_autocatalysis_system,
                      exact_ode_solution, parse_config, resample_spectral,
                      run_cauchy_convergence, run_energy_trace, run_ode_convergence,
                      run_single, weighted_order, write_resolved_config)
from .reaction import (PointState, ReactionSpec, admissible_interval,
                       chemical_affinity, energy_difference_quotient,
                       point_free_energy, predictor_first_order, reaction_mobility,
                       reaction_stage, reaction_step)
from .splitting import (RunReport, SimState, Species, SystemSpec, conserved_basis, run,
                        steps_for, strang_step, system_energy)

__version__ = "0.1.0"
