"""Feasibility filter and exact search: direct examples, oracle equivalence, structural properties."""

from itertools import combinations

import numpy as np

from dualmind.core import ConflictGraph, builtin_scenario
from dualmind.dmwm import slow_mind_select
from dualmind.icn import best_feasible, conflict_masks, enumerate_feasible, icn_check
from helpers import make_cfg


def _brute_feasible(n, k, q, ages, deadlines, raw_pairs):
    """Independent re-statement of the three feasibility predicates."""
    out = []
    for combo in combinations(range(n), k):
        ok = all(q[i] > 0 for i in combo)
        if ok:
            for i in combo:
                d = deadlines[i]
                if d is not None and ages[i] is not None and ages[i] > d:
                    ok = False
        if ok:
            for i in combo:
                for j in combo:
                    if i != j and ((i, j) in raw_pairs or (j, i) in raw_pairs):
                        ok = False
        if ok:
            out.append(combo)
    return out


def _random_state(rng, n=5):
    q = tuple(int(rng.integers(0, 7)) for _ in range(n))
    ages = tuple(int(rng.integers(0, 11)) if q[i] > 0 else None for i in range(n))
    deadlines = tuple(
        int(rng.integers(1, 9)) if rng.random() < 0.5 else None for _ in range(n)
    )
    raw_pairs = {
        (i, j)
        for i in range(n)
        for j in range(i + 1, n)
        if rng.random() < 0.3
    }
    return q, ages, deadlines, raw_pairs


def test_rejects_empty_queue():
    assert not icn_check((0,), (0, 3), (None, 1), (None, None), ConflictGraph())


def test_rejects_conflict_pair():
    graph = ConflictGraph.from_pairs([(0, 1)])
    assert not icn_check((0, 1), (2, 2), (0, 0), (None, None), graph)


def test_accepts_clean_schedule():
    graph = ConflictGraph.from_pairs([(0, 1)])
    q = (2, 0, 4, 1, 1)
    ages = tuple(0 if v > 0 else None for v in q)
    assert icn_check((0, 2), q, ages, (None,) * 5, graph)


def test_rejects_expired_head():
    deadlines = (None, None, None, 5, None)
    ages = (None, None, None, 6, None)
    assert not icn_check((3,), (0, 0, 0, 2, 0), ages, deadlines, ConflictGraph())


def test_enumerate_all_subsets_feasible():
    q = (1, 1, 1)
    ages = (0, 0, 0)
    got = enumerate_feasible(3, 2, q, ages, (None,) * 3, ConflictGraph())
    assert got == [(0, 1), (0, 2), (1, 2)]


def test_enumerate_skips_empty_queues():
    q = (1, 0, 1)
    ages = (0, None, 0)
    got = enumerate_feasible(3, 2, q, ages, (None,) * 3, ConflictGraph())
    assert got == [(0, 2)]


def test_enumerate_can_be_empty():
    graph = ConflictGraph.from_pairs([(0, 1)])
    got = enumerate_feasible(2, 2, (1, 1), (0, 0), (None, None), graph)
    assert got == []


def test_matches_brute_force_on_random_states():
    rng = np.random.default_rng(2027)
    for trial in range(300):
        k = int(rng.integers(1, 4))
        q, ages, deadlines, raw_pairs = _random_state(rng)
        graph = ConflictGraph.from_pairs(raw_pairs)
        got = enumerate_feasible(5, k, q, ages, deadlines, graph)
        want = _brute_feasible(5, k, q, ages, deadlines, raw_pairs)
        assert got == want, f"trial {trial}: {got} != {want}"


def _old_enumerate(n, k, q, ages, deadlines, graph):
    """The previous enumeration, kept as an oracle: every k-subset through icn_check."""
    return [c for c in combinations(range(n), k) if icn_check(c, q, ages, deadlines, graph)]


def test_matches_full_enumeration_oracle_on_random_states():
    rng = np.random.default_rng(20261018)
    nonempty = 0
    for trial in range(5000):
        n = int(rng.integers(1, 13))
        k = int(rng.integers(1, n + 1))
        zero_share = rng.random() * 0.5
        q = tuple(0 if rng.random() < zero_share else int(rng.integers(1, 6)) for _ in range(n))
        ages = tuple(int(rng.integers(0, 12)) if q[i] > 0 else None for i in range(n))
        deadlines = tuple(
            int(rng.integers(1, 10)) if rng.random() < 0.5 else None for _ in range(n)
        )
        density = rng.random() * 0.5
        # each pair in a random orientation: the graph must normalise it
        pairs = frozenset(
            (i, j) if rng.random() < 0.5 else (j, i)
            for i in range(n)
            for j in range(i + 1, n)
            if rng.random() < density
        )
        graph = ConflictGraph(pairs)
        got = enumerate_feasible(n, k, q, ages, deadlines, graph)
        want = _old_enumerate(n, k, q, ages, deadlines, graph)
        assert got == want, f"trial {trial}: {got} != {want}"
        nonempty += bool(want)
    assert nonempty >= 1000  # many states must leave something to enumerate


def test_reversed_pair_blocks_both_orders():
    graph = ConflictGraph(frozenset({(3, 1)}))
    q = (1, 1, 1, 1)
    got = enumerate_feasible(4, 2, q, (0,) * 4, (None,) * 4, graph)
    assert (1, 3) not in got
    assert got == [(0, 1), (0, 2), (0, 3), (1, 2), (2, 3)]
    assert not icn_check((1, 3), q, (0,) * 4, (None,) * 4, graph)


def test_adding_conflicts_never_grows_feasible_set():
    rng = np.random.default_rng(555)
    for _ in range(100):
        q, ages, deadlines, raw_pairs = _random_state(rng)
        base = set(enumerate_feasible(5, 3, q, ages, deadlines, ConflictGraph.from_pairs(raw_pairs)))
        extra = raw_pairs | {(0, 2)}
        tightened = set(
            enumerate_feasible(5, 3, q, ages, deadlines, ConflictGraph.from_pairs(extra))
        )
        assert tightened <= base


def test_feasibility_is_hereditary():
    rng = np.random.default_rng(99)
    for _ in range(100):
        q, ages, deadlines, raw_pairs = _random_state(rng)
        graph = ConflictGraph.from_pairs(raw_pairs)
        for schedule in enumerate_feasible(5, 3, q, ages, deadlines, graph):
            for size in (1, 2):
                for sub in combinations(schedule, size):
                    assert icn_check(sub, q, ages, deadlines, graph)


def _search(n, k, q, ages, deadlines, graph, horizon):
    masks = conflict_masks(make_cfg(n_nodes=n, max_scheduled=k, pairs=graph.pairs))
    return best_feasible(k, q, ages, deadlines, masks, horizon)


def _list_and_score(n, k, q, ages, deadlines, graph, horizon):
    """The oracle: list the feasible sets, then keep the first best one."""
    feasible = enumerate_feasible(n, k, q, ages, deadlines, graph)
    if not feasible:
        return 0, None, None, 0
    schedule, score = slow_mind_select(feasible, q, horizon)
    ties = sum(1 for s in feasible if sum(min(q[i], horizon) for i in s) == score)
    return len(feasible), schedule, score, ties


def _random_search_state(rng, n, zero_share, density):
    q = tuple(0 if rng.random() < zero_share else int(rng.integers(1, 7)) for _ in range(n))
    ages = tuple(int(rng.integers(0, 12)) if q[i] > 0 else None for i in range(n))
    deadlines = tuple(int(rng.integers(1, 10)) if rng.random() < 0.5 else None for _ in range(n))
    graph = ConflictGraph.from_pairs(
        (i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < density
    )
    return q, ages, deadlines, graph


def test_search_matches_list_and_score_oracle_on_random_states():
    rng = np.random.default_rng(1118)
    found = tied = 0
    for trial in range(300):
        n = int(rng.integers(1, 13))
        q, ages, deadlines, graph = _random_search_state(
            rng, n, zero_share=0.3 * rng.random(), density=0.6 * rng.random()
        )
        horizon = int(rng.integers(1, 6))
        for k in range(1, n + 1):
            count, schedule, score, ties = _list_and_score(n, k, q, ages, deadlines, graph, horizon)
            got = _search(n, k, q, ages, deadlines, graph, horizon)
            assert got == (count, schedule, score), f"trial {trial}, k={k}"
            found += count > 0
            tied += ties > 1
    assert found >= 500 and tied >= 300  # the count and the tie rule are both exercised


def test_search_matches_oracle_when_k_is_at_least_16():
    rng = np.random.default_rng(17)
    found = 0
    for trial in range(40):
        q, _, _, graph = _random_search_state(rng, 20, zero_share=0.05, density=0.015)
        ages = tuple(int(rng.integers(0, 4)) if v > 0 else None for v in q)
        deadlines = tuple(3 if rng.random() < 0.2 else None for _ in range(20))  # few expire
        horizon = int(rng.integers(1, 6))
        for k in (16, 17, 20):
            want = _list_and_score(20, k, q, ages, deadlines, graph, horizon)[:3]
            assert _search(20, k, q, ages, deadlines, graph, horizon) == want, f"trial {trial}, k={k}"
            found += want[0] > 0
    assert found >= 20


def test_search_without_any_feasible_set():
    graph = ConflictGraph.from_pairs([(0, 1)])
    assert _search(2, 2, (1, 1), (0, 0), (None, None), graph, 3) == (0, None, None)
    assert _search(3, 2, (1, 0, 1), (0, None, 0), (None,) * 3, ConflictGraph(), 3)[0] == 1


def test_k_set_exists_only_when_some_conflict_free_k_set_does():
    assert not conflict_masks(builtin_scenario("interference")).k_set_exists  # 5-ring, K=3
    assert conflict_masks(builtin_scenario("default")).k_set_exists
    rng = np.random.default_rng(5)
    for _ in range(300):
        n = int(rng.integers(1, 9))
        k = int(rng.integers(1, n + 1))
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < 0.6]
        cfg = make_cfg(n_nodes=n, max_scheduled=k, pairs=pairs)
        anywhere = enumerate_feasible(n, k, (1,) * n, (None,) * n, (None,) * n, cfg.conflict_graph)
        assert conflict_masks(cfg).k_set_exists == bool(anywhere)


def test_clique_cover_puts_each_node_in_one_clique_of_mutual_conflicts():
    rng = np.random.default_rng(8)
    for _ in range(200):
        n = int(rng.integers(1, 10))
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < 0.5]
        cfg = make_cfg(n_nodes=n, max_scheduled=1, pairs=pairs)
        clique = conflict_masks(cfg).clique
        assert all(bin(bit).count("1") == 1 for bit in clique)
        for i, j in combinations(range(n), 2):
            if clique[i] == clique[j]:
                assert cfg.conflict_graph.contains(i, j)
