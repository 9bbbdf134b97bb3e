"""Slotted wireless access scheduling testbed.

A deterministic digital twin of a small slotted network, a dual-mind
scheduler (an exact search for the conflict-free set of eligible nodes
that a short drain-only rollout scores best, with a reactive urgency
fallback), five baseline policies, and a campaign harness that aggregates
metrics over seeded runs.

Every policy's decide(observation, rng) returns the slot's schedule as a
sorted tuple of node ids; the dual-mind scheduler also logs a
DecisionRecord per slot saying which mind chose it. The twin keeps each
node's queue as a deque of packet arrival slots; its step takes the slot's
per-node arrival counts, drawn for a whole run by draw_arrivals, and
returns the next slot's observation with the slot's outcome.
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
from .dmwm import DecisionRecord, DmwmScheduler, fast_mind_select
from .harness import (
    POLICY_NAMES,
    PolicyAggregate,
    RunRecord,
    aggregate,
    make_policy,
    run_episode,
    run_experiment,
)
from .traffic import (
    TrafficStreams,
    generate_arrivals,
    make_rng,
    policy_stream,
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
    metrics,
    model_error_matrix,
    observe,
    reset,
    step,
)

__version__ = "0.1.0"
