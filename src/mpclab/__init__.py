"""Receding-horizon control with noisy forecasts: exact windowed solvers,
saddle-matrix sensitivity analysis, and dynamic-regret certification."""

from .model import (Bounds, DisturbanceOnlySystem, Instance, InventorySystem,
                    LinearQuadraticSystem, ModelError, ParamBox,
                    PredictionStream, TerminalCost, config_hash,
                    validate_assumptions)
from .ftocp import (ChainLaw, ContinuationLaw, FtocpSolution, Infeasible,
                    SingularKKT, chain_law, continuation_law, truth_law,
                    window_law)
from .kkt import (DecayFit, GainTables, TrackingDecayConstants,
                  decay_profile, measure_gain_tables, sigma_min,
                  tracking_decay_constants, window_data)
from .engine import (TerminalRule, TrajectoryRecord,
                     per_step_error_bound_rhs, pipeline_admission_check,
                     run_mpc, solve_opt)
from .regret import (RegretReport, SweepResult, aggregate_E,
                     regret_inequalities, sweep_horizon, sweep_noise)
from .presets import (PRESETS, build_instance, build_preset,
                      inventory_counterexample_suite)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
