"""Numerical laboratory for the linearized two-species Vlasov-Maxwell-Landau system.

Desk-scale discretization of the Landau collision machinery, per-Fourier-mode
evolution of the coupled kinetic-Maxwell system, energy/dissipation
diagnostics, and algebraic decay-rate experiments.
"""

from .collision import (CollisionFrequencyField, CollisionParams, LinearizedOperator,
                        apply_Q, assemble_L, sigma_field)
from .grid import (GridMismatchError, GridParameterError, TwoSpeciesField,
                   VelocityGrid, build_grid, inner_product, maxwellian,
                   velocity_gradient)
from .lab import (DecayFitReport, ExperimentConfig, RunArchive, build_k_set,
                  decay_fit, init_data, load_archive, parse_config, report,
                  run_sweep, synthesize_norms)
from .macro import MacroState, macro_residuals, project_P
from .mode import (ModeEnergyReport, ModeHistory, ModeState, StepperConfig,
                   energy_identity_check, integrate_mode, mode_energy_report,
                   mode_rhs, rho_frequency)
from .weights import (EnergyLedger, EnergyRequest, WeightSpec, dissipation_norm,
                      energy_ledger, temporal_norm_x, weight_eval)

__version__ = "0.1.0"
