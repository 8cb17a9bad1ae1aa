"""Joint client selection and privacy compensation for DP federated learning."""

from .costs import CostDistribution, TruncatedGaussianCosts, UniformCosts
from .mechanism import (BatchSolution, ServerConfig, StructureReport,
                        fixed_probability_solve, optimal_epsilon,
                        solve_profiles, verify_structure)
from .oracle import BruteForceResult, brute_force_solve, lagrangian_budget_split
from .payments import (InterimAllocation, expost_payments, interim_allocation,
                       payment)
from .flsim import (RunRecord, SelectionPlan, SyntheticTask, TaskSpec,
                    TrainSettings, build_schedule, initial_local_losses,
                    local_noisy_gradient, make_plan, make_task,
                    match_eta_to_cost, noise_sigma, parse_mechanism,
                    partition_noniid, train)
from .audit import (Verdict, budget_identity, grid_vs_brute_force,
                    interim_monotone, noise_calibration, truthfulness)
from .config import (ConfigError, CostSpec, ExperimentConfig, ServerSpec,
                     from_dict, load, server_config, validate)

__version__ = "0.1.0"
