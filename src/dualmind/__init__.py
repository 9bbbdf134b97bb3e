"""Slotted wireless access scheduling testbed.

A deterministic digital twin of a small slotted network, a dual-mind
scheduler (short-horizon rollout planning over a feasibility-filtered
candidate set, with a reactive urgency fallback), five baseline policies,
and a campaign harness that aggregates metrics over seeded runs.

Every policy's decide(observation, rng) returns the slot's schedule as a
sorted tuple of node ids; the dual-mind scheduler also logs a
DecisionRecord per slot saying which mind chose it. The twin keeps each
node's queue as a deque of packet arrival slots, and its step takes the
slot's per-node arrival counts, drawn for a whole run by draw_arrivals.
"""

from .baselines import (
    DeadlinePriorityPolicy,
    FairRoundRobinPolicy,
    LqfPolicy,
    QLearningPolicy,
    QTable,
    RandomPolicy,
)
from .core import (
    BUILTIN_SCENARIOS,
    ConflictGraph,
    InvalidConfig,
    Provenance,
    ScenarioConfig,
    UnknownScenario,
    builtin_scenario,
    scenario_from_dict,
    scenario_to_dict,
    validate_config,
)
from .dmwm import (
    DecisionRecord,
    DmwmScheduler,
    RolloutResult,
    dmwm_decide,
    fast_mind_select,
    rollout,
    slow_mind_select,
)
from .harness import (
    POLICY_NAMES,
    PolicyAggregate,
    RunRecord,
    aggregate,
    make_policy,
    run_episode,
    run_experiment,
)
from .icn import enumerate_feasible, icn_check
from .traffic import (
    TrafficStreams,
    arrival_rate,
    generate_arrivals,
    make_rng,
    policy_stream,
    sample_poisson,
    traffic_streams,
)
from .twin import (
    Observation,
    RunMetrics,
    SimulationEnded,
    StepOutcome,
    TwinState,
    conservation_gap,
    draw_arrivals,
    imagined_next,
    metrics,
    model_error_matrix,
    observe,
    reset,
    step,
)

__version__ = "0.1.0"
