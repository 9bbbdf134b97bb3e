"""The exact search: hand cases and structural properties, and equivalence with the oracles."""

from math import comb

import numpy as np

from dualmind.core import builtin_scenario
from dualmind.icn import best_feasible, conflict_masks
from helpers import make_cfg, random_state, search
from oracles import drain_rollout, feasible_sets, first_best


def _masks(n, k, pairs=()):
    return conflict_masks(make_cfg(n_nodes=n, max_scheduled=k, pairs=pairs))


def test_zero_weights_are_skipped():
    assert best_feasible(2, (0, 5, 0, 1), _masks(4, 2)) == (1, (1, 3), 6)
    assert best_feasible(2, (0, 5, 0, 0), _masks(4, 2)) == (0, None, None)
    assert best_feasible(1, (0, 0, 0), _masks(3, 1)) == (0, None, None)
    # default's shape: four eligible nodes but two conflicting pairs, so no 3-set
    assert best_feasible(3, (1, 1, 1, 1, 0), _masks(5, 3, [(0, 1), (2, 3)])) == (0, None, None)


def test_equal_weights_tie_to_the_lexicographically_first_set():
    assert best_feasible(2, (2, 2, 2, 2), _masks(4, 2)) == (6, (0, 1), 4)
    # (0, 1) conflicts, so (0, 2) is the first of five sets scoring 4
    assert best_feasible(2, (2, 2, 2, 2), _masks(4, 2, [(0, 1)])) == (5, (0, 2), 4)
    assert best_feasible(2, (1, 3, 3, 3), _masks(4, 2)) == (6, (1, 2), 6)


def test_weights_are_scored_as_given():
    # no cap or eligibility rule inside the search: those are the planner's
    assert best_feasible(1, (7, 90, 9), _masks(3, 1)) == (3, (1,), 90)
    assert best_feasible(2, (2**70, 1, 2**70), _masks(3, 2)) == (3, (0, 2), 2**71)


def test_search_is_exact_where_no_conflict_free_k_set_exists():
    masks = conflict_masks(builtin_scenario("interference"))  # 5-ring, K=3
    assert best_feasible(3, (1,) * 5, masks) == (0, None, None)
    assert best_feasible(2, (1,) * 5, masks) == (5, (0, 2), 2)


def test_rejects_empty_queue():
    assert search(1, (0, 3), (None, 1), (None, None), (), 3) == (1, (1,), 3)
    assert search(2, (0, 3), (None, 1), (None, None), (), 3) == (0, None, None)


def test_rejects_conflict_pair():
    assert search(2, (2, 2), (0, 0), (None, None), [(0, 1)], 3) == (0, None, None)
    assert search(2, (2, 2), (0, 0), (None, None), (), 3) == (1, (0, 1), 4)


def test_accepts_clean_schedule():
    q = (2, 0, 4, 1, 1)
    ages = tuple(0 if v > 0 else None for v in q)
    # nodes 0, 2, 3 and 4 are eligible and the pair (0, 1) blocks none of their 2-sets
    assert search(2, q, ages, (None,) * 5, [(0, 1)], 3) == (6, (0, 2), 5)


def test_rejects_expired_head():
    q = (0, 0, 0, 2, 0)
    deadlines = (None, None, None, 5, None)
    assert search(1, q, (None, None, None, 6, None), deadlines, (), 3) == (0, None, None)
    assert search(1, q, (None, None, None, 5, None), deadlines, (), 3) == (1, (3,), 2)


def test_enumerate_all_subsets_feasible():
    assert search(2, (1, 1, 1), (0, 0, 0), (None,) * 3, (), 3) == (3, (0, 1), 2)


def test_enumerate_skips_empty_queues():
    assert search(2, (1, 0, 1), (0, None, 0), (None,) * 3, (), 3) == (1, (0, 2), 2)


def test_enumerate_can_be_empty():
    triangle = [(0, 1), (1, 2), (0, 2)]
    assert search(2, (1, 1, 1), (0, 0, 0), (None,) * 3, triangle, 3) == (0, None, None)


def test_matches_brute_force_on_random_states():
    rng = np.random.default_rng(2027)
    for trial in range(300):
        k = int(rng.integers(1, 4))
        q, ages, deadlines, pairs = random_state(rng, 5, zero_share=1 / 7, density=0.3)
        got = search(k, q, ages, deadlines, pairs, 3)
        want = first_best(k, q, ages, deadlines, pairs, 3)
        assert got == want, f"trial {trial}: {got} != {want}"


def test_matches_full_enumeration_oracle_on_random_states():
    # At horizon 1 every feasible k-set scores k, so the search must return
    # the count and the lexicographically first feasible set.
    rng = np.random.default_rng(20261018)
    nonempty = blocked = 0
    for trial in range(5000):
        n = int(rng.integers(1, 13))
        k = int(rng.integers(1, n + 1))
        q, ages, deadlines, pairs = random_state(
            rng, n, zero_share=0.5 * rng.random(), density=0.5 * rng.random()
        )
        sets = feasible_sets(k, q, ages, deadlines, pairs)
        want = (len(sets), sets[0], k) if sets else (0, None, None)
        assert search(k, q, ages, deadlines, pairs, 1) == want, f"trial {trial}"
        nonempty += bool(sets)
        # enough eligible nodes and some conflict-free k-set in the graph, yet none among them
        blocked += not sets and len(feasible_sets(1, q, ages, deadlines, ())) >= k and bool(
            feasible_sets(k, (1,) * n, (None,) * n, (None,) * n, pairs)
        )
    assert nonempty >= 1000  # many states must leave something to count
    assert blocked >= 200  # and many must be infeasible only through their conflicts


def test_reversed_pair_blocks_both_orders():
    for pair in ((3, 1), (1, 3)):
        assert search(2, (1, 1, 1, 1), (0,) * 4, (None,) * 4, [pair], 3) == (5, (0, 1), 2)
        assert search(2, (0, 1, 0, 1), (None, 0, None, 0), (None,) * 4, [pair], 3) == (0, None, None)


def test_adding_conflicts_never_grows_feasible_set():
    rng = np.random.default_rng(555)
    grew = 0
    for _ in range(100):
        q, ages, deadlines, pairs = random_state(rng, 5, zero_share=1 / 7, density=0.3)
        base = search(3, q, ages, deadlines, pairs, 3)[0]
        tightened = search(3, q, ages, deadlines, pairs | {(0, 2)}, 3)[0]
        assert tightened <= base
        grew += tightened < base
    assert grew > 0  # the extra pair must sometimes remove sets


def test_feasibility_is_hereditary():
    # Idle every node outside the chosen set: then every subset of the set,
    # and nothing else, must count as feasible.
    rng = np.random.default_rng(99)
    found = 0
    for _ in range(100):
        q, ages, deadlines, pairs = random_state(rng, 5, zero_share=1 / 7, density=0.3)
        schedule = search(3, q, ages, deadlines, pairs, 3)[1]
        if schedule is None:
            continue
        found += 1
        kept = tuple(v if i in schedule else 0 for i, v in enumerate(q))
        kept_ages = tuple(a if i in schedule else None for i, a in enumerate(ages))
        for size in (1, 2, 3):
            assert search(size, kept, kept_ages, deadlines, pairs, 3)[0] == comb(3, size)
    assert found >= 10


def test_search_matches_first_best_oracle_on_random_states():
    rng = np.random.default_rng(1118)
    found = tied = 0
    for trial in range(300):
        n = int(rng.integers(1, 13))
        q, ages, deadlines, pairs = random_state(
            rng, n, zero_share=0.3 * rng.random(), density=0.6 * rng.random()
        )
        horizon = int(rng.integers(1, 6))
        for k in range(1, n + 1):
            want = first_best(k, q, ages, deadlines, pairs, horizon)
            assert search(k, q, ages, deadlines, pairs, horizon) == want, f"trial {trial}, k={k}"
            found += want[0] > 0
            sets = feasible_sets(k, q, ages, deadlines, pairs)
            tied += [drain_rollout(q, s, horizon).reward for s in sets].count(want[2]) > 1
    assert found >= 500 and tied >= 300  # the count and the tie rule are both exercised


def test_search_matches_oracle_when_k_is_at_least_16():
    rng = np.random.default_rng(17)
    found = 0
    for trial in range(40):
        q, _, _, pairs = random_state(rng, 20, zero_share=0.05, density=0.015)
        ages = tuple(int(rng.integers(0, 4)) if v > 0 else None for v in q)
        deadlines = tuple(3 if rng.random() < 0.2 else None for _ in range(20))  # few expire
        horizon = int(rng.integers(1, 6))
        for k in (16, 17, 20):
            want = first_best(k, q, ages, deadlines, pairs, horizon)
            assert search(k, q, ages, deadlines, pairs, horizon) == want, f"trial {trial}, k={k}"
            found += want[0] > 0
    assert found >= 20


def test_search_without_any_feasible_set():
    assert search(2, (1, 1), (0, 0), (None, None), [(0, 1)], 3) == (0, None, None)
    assert search(2, (1, 0, 1), (0, None, 0), (None,) * 3, (), 3)[0] == 1
