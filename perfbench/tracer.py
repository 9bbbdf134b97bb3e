"""Span tracer for the benchmark's traced run.

Wraps dualmind's public functions in the namespaces of the modules that call
them, and the policies' decide/update methods on their classes, so that each
call becomes a span (name, start, end, parent, episode id). Spans stay in
flat arrays in memory and are written once at the end; self times are
derived from them. Counters are taken at the same boundaries.
"""

from __future__ import annotations

import importlib
from array import array
from contextlib import contextmanager
from math import comb
from pathlib import Path
from time import perf_counter

import numpy as np


def _count_arrivals(counts, args, result):
    counts["traffic.arrivals"] += sum(result)


def _count_step(counts, args, outcome):
    counts["twin.delivered"] += len(outcome.served)
    counts["twin.drops"] += outcome.new_drops
    counts["twin.violations"] += outcome.new_violations


def _count_feasible(counts, args, feasible):
    counts["icn.candidates"] += comb(args[0], args[1])
    counts["icn.feasible"] += len(feasible)


def _count_rollouts(counts, args, result):
    counts["dmwm.rollouts"] += len(args[0])


# (module, attribute, span name, counter); the attribute may be "Class.method".
TARGETS = (
    ("dualmind.twin", "generate_arrivals", "traffic.generate_arrivals", _count_arrivals),
    ("dualmind.harness", "traffic_streams", "traffic.streams", None),
    ("dualmind.harness", "policy_stream", "traffic.streams", None),
    ("dualmind.harness", "reset", "twin.reset", None),
    ("dualmind.harness", "step", "twin.step", _count_step),
    ("dualmind.harness", "observe", "twin.observe", None),
    ("dualmind.harness", "imagined_next", "twin.imagined_next", None),
    ("dualmind.harness", "record_model_error", "twin.record_model_error", None),
    ("dualmind.harness", "run_episode", "harness.run_episode", None),
    ("dualmind.dmwm", "enumerate_feasible", "icn.enumerate_feasible", _count_feasible),
    ("dualmind.dmwm", "slow_mind_select", "dmwm.slow_mind_select", _count_rollouts),
    ("dualmind.dmwm", "fast_mind_select", "dmwm.fast_mind_select", None),
    ("dualmind.dmwm", "DmwmScheduler.decide", "dmwm.decide", None),
    ("dualmind.baselines", "RandomPolicy.decide", "baselines.random.decide", None),
    ("dualmind.baselines", "LqfPolicy.decide", "baselines.lqf.decide", None),
    ("dualmind.baselines", "DeadlinePriorityPolicy.decide", "baselines.deadline.decide", None),
    ("dualmind.baselines", "FairRoundRobinPolicy.decide", "baselines.rr.decide", None),
    ("dualmind.baselines", "QLearningPolicy.decide", "baselines.qlearn.decide", None),
    ("dualmind.baselines", "QLearningPolicy.update", "baselines.qlearn.update", None),
)

COUNTERS = (
    "traffic.arrivals",
    "twin.delivered",
    "twin.drops",
    "twin.violations",
    "icn.candidates",
    "icn.feasible",
    "dmwm.rollouts",
)


def _owner(module: str, attr: str):
    obj = importlib.import_module(module)
    *path, name = attr.split(".")
    for part in path:
        obj = getattr(obj, part)
    return obj, name


class Tracer:
    """Collects spans and counters while installed; see installed()."""

    def __init__(self):
        self.span_names: list[str] = []
        self.names = array("i")
        self.parents = array("q")
        self.episodes = array("q")
        self.starts = array("d")
        self.ends = array("d")
        self.counts = dict.fromkeys(COUNTERS, 0)
        self.episode = -1
        self._stack = [-1]

    def _name_id(self, name: str) -> int:
        if name not in self.span_names:
            self.span_names.append(name)
        return self.span_names.index(name)

    def _wrap(self, fn, name: str, counter):
        name_id = self._name_id(name)
        names, parents, episodes = self.names, self.parents, self.episodes
        starts, ends, stack, counts = self.starts, self.ends, self._stack, self.counts
        clock = perf_counter
        tracer = self

        def traced(*args, **kwargs):
            idx = len(ends)
            names.append(name_id)
            parents.append(stack[-1])
            episodes.append(tracer.episode)
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if counter is not None:
                counter(counts, args, result)
            return result

        if name == "harness.run_episode":
            def new_episode(*args, **kwargs):
                tracer.episode += 1
                return traced(*args, **kwargs)

            return new_episode
        return traced

    @contextmanager
    def installed(self):
        """Swap every target for its traced wrapper; restore the originals on exit."""
        saved = []
        try:
            for module, attr, name, counter in TARGETS:
                owner, key = _owner(module, attr)
                original = vars(owner)[key]
                saved.append((owner, key, original))
                setattr(owner, key, self._wrap(original, name, counter))
            yield self
        finally:
            for owner, key, original in reversed(saved):
                setattr(owner, key, original)
        for owner, key, original in saved:
            if vars(owner)[key] is not original:
                raise RuntimeError(f"{owner.__name__}.{key} was not restored")

    def totals(self) -> dict[str, tuple[int, float, float]]:
        """Per span name: (calls, total seconds, self seconds excluding child spans)."""
        names = np.frombuffer(self.names, dtype=np.int32)
        parents = np.frombuffer(self.parents, dtype=np.int64)
        dur = np.frombuffer(self.ends) - np.frombuffer(self.starts)
        nested = parents >= 0
        child = np.bincount(parents[nested], weights=dur[nested], minlength=len(dur))
        k = len(self.span_names)
        calls = np.bincount(names, minlength=k)
        total = np.bincount(names, weights=dur, minlength=k)
        own = np.bincount(names, weights=dur - child, minlength=k)
        return {
            name: (int(calls[i]), float(total[i]), float(own[i]))
            for i, name in enumerate(self.span_names)
        }

    def write(self, path: Path) -> None:
        """All spans as arrays: name id, start, end, parent index, episode id."""
        np.savez(
            path,
            span_names=np.array(self.span_names),
            name=np.frombuffer(self.names, dtype=np.int32),
            start=np.frombuffer(self.starts),
            end=np.frombuffer(self.ends),
            parent=np.frombuffer(self.parents, dtype=np.int64),
            episode=np.frombuffer(self.episodes, dtype=np.int64),
        )


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer metrics named after dualmind's modules."""
    spans = tracer.totals()
    counts = tracer.counts

    def calls(name):
        return spans.get(name, (0, 0.0, 0.0))[0]

    def total(name):
        return spans.get(name, (0, 0.0, 0.0))[1]

    def own(name):
        return spans.get(name, (0, 0.0, 0.0))[2]

    m = {
        "traffic.generate_arrivals.s": total("traffic.generate_arrivals"),
        "traffic.generate_arrivals.calls": calls("traffic.generate_arrivals"),
        "traffic.streams.s": total("traffic.streams"),
        "traffic.arrivals": counts["traffic.arrivals"],
        "twin.step.self_s": own("twin.step"),
        "twin.step.calls": calls("twin.step"),
        "twin.observe.s": total("twin.observe"),
        "twin.imagined_next.s": total("twin.imagined_next"),
        "twin.record_model_error.s": total("twin.record_model_error"),
        "twin.reset.s": total("twin.reset"),
        "twin.delivered": counts["twin.delivered"],
        "twin.drops": counts["twin.drops"],
        "twin.violations": counts["twin.violations"],
        "icn.enumerate_feasible.s": total("icn.enumerate_feasible"),
        "icn.enumerate_feasible.calls": calls("icn.enumerate_feasible"),
        "icn.candidates": counts["icn.candidates"],
        "icn.feasible": counts["icn.feasible"],
        "icn.feasible_ratio": counts["icn.feasible"] / max(counts["icn.candidates"], 1),
        "dmwm.slow_mind_select.s": total("dmwm.slow_mind_select"),
        "dmwm.rollouts": counts["dmwm.rollouts"],
        "dmwm.fast_mind_select.s": total("dmwm.fast_mind_select"),
        "dmwm.decide.self_s": own("dmwm.decide"),
        "dmwm.slow_share": calls("dmwm.slow_mind_select") / max(calls("dmwm.decide"), 1),
        "harness.run_episode.self_s": own("harness.run_episode"),
        "baselines.qlearn.update_s": total("baselines.qlearn.update"),
    }
    for policy in ("random", "lqf", "deadline", "rr", "qlearn"):
        m[f"baselines.{policy}.decide_s"] = total(f"baselines.{policy}.decide")
    return m
