"""Constrained-POMDP planning and simulation for mobile relay selection."""

__version__ = "0.1.0"

from .model import (  # noqa: F401
    Action,
    DirectLink,
    RelaySpec,
    ScenarioConfig,
    UeSpec,
    link_metric,
    load_scenario,
    relay_cost,
    relay_reward,
    save_scenario,
    total_cost,
    total_reward,
)
from .mobility import (  # noqa: F401
    MarkovChain,
    apply_speed,
    build_axis_chain,
    build_grid_chain,
    chains_for_scenario,
    distance_function,
    slem,
    stationary_distribution,
)
from .belief import (  # noqa: F401
    BeliefSet,
    FactoredBelief,
    build_h_belief_set,
    density_bound,
    empirical_density,
    joint_belief,
    update_relay_belief,
)
from .alpha import AlphaPair  # noqa: F401
from .solvers import (  # noqa: F401
    PolicySolution,
    brute_force_oracle,
    load_policy,
    pbvi_error_bound,
    save_policy,
    solve_cpbvi,
    solve_exact,
    solve_gcpbvi,
)
from .sim import (  # noqa: F401
    EpisodeTrace,
    SimulationMetrics,
    baseline_cellular,
    complexity_log10,
    complexity_model,
    complexity_ratio,
    discrete_derivative,
    exact_policy_value,
    monte_carlo,
    run_episode,
    run_multiuser,
    solve_centralized,
)
