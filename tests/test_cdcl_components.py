"""Unit tests for the CDCL solver's building blocks: Luby sequence, activity heap, clauses."""

from __future__ import annotations

import random

import pytest

from repro.sat.cdcl.clause import WatchedClause
from repro.sat.cdcl.heap import ActivityHeap
from repro.sat.cdcl.luby import luby, luby_sequence


class TestLuby:
    def test_known_prefix(self):
        expected = [1, 1, 2, 1, 1, 2, 4, 1, 1, 2, 1, 1, 2, 4, 8]
        assert luby_sequence(15) == expected

    def test_values_are_powers_of_two(self):
        for i in range(1, 200):
            value = luby(i)
            assert value & (value - 1) == 0

    def test_positions_of_large_values(self):
        # The value 2^k first appears at index 2^(k+1) - 1.
        for k in range(6):
            assert luby((1 << (k + 1)) - 1) == 1 << k

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            luby(0)


class TestActivityHeap:
    def _make(self, activities):
        activity = [0.0] + list(activities)
        heap = ActivityHeap(activity)
        for var in range(1, len(activities) + 1):
            heap.push(var)
        return heap, activity

    def test_pop_returns_highest_activity(self):
        heap, _ = self._make([1.0, 5.0, 3.0])
        assert heap.pop() == 2

    def test_tie_break_by_index(self):
        heap, _ = self._make([2.0, 2.0, 2.0])
        assert heap.pop() == 1

    def test_push_is_idempotent(self):
        heap, _ = self._make([1.0, 2.0])
        heap.push(1)
        assert len(heap) == 2

    def test_pop_empties_heap(self):
        heap, _ = self._make([1.0, 2.0, 3.0])
        popped = [heap.pop() for _ in range(3)]
        assert sorted(popped) == [1, 2, 3]
        assert heap.is_empty()

    def test_pop_empty_raises(self):
        heap, _ = self._make([])
        with pytest.raises(IndexError):
            heap.pop()

    def test_update_after_bump(self):
        heap, activity = self._make([1.0, 2.0, 3.0])
        activity[1] = 10.0
        heap.update(1)
        assert heap.pop() == 1

    def test_membership(self):
        heap, _ = self._make([1.0, 2.0])
        assert 1 in heap
        heap.pop()
        heap.pop()
        assert 1 not in heap

    def test_rebuild(self):
        heap, activity = self._make([1.0, 2.0, 3.0])
        heap.pop()
        activity[1] = 99.0
        heap.rebuild([1, 2, 3])
        assert heap.pop() == 1

    def test_heap_order_is_total(self):
        heap, _ = self._make([5.0, 1.0, 4.0, 2.0, 3.0])
        order = [heap.pop() for _ in range(5)]
        assert order == [1, 3, 5, 4, 2]

    def test_matches_a_brute_force_queue(self):
        # Random push, pop and bump-then-update sequences on a shared activity
        # list, with few distinct activities so ties are common: every pop
        # must return the queued variable of highest activity, the smallest
        # index among equals, as a scan of the queued set finds it.
        rng = random.Random(20)
        for _ in range(300):
            num_vars = rng.randint(1, 24)
            activity = [0.0] * (num_vars + 1)
            heap = ActivityHeap(activity)
            queued: set[int] = set()
            for _ in range(rng.randint(1, 150)):
                op = rng.random()
                if op < 0.4:
                    var = rng.randint(1, num_vars)
                    heap.push(var)
                    queued.add(var)
                elif op < 0.7:
                    var = rng.randint(1, num_vars)
                    activity[var] += rng.choice((0.5, 1.0, 2.0))
                    heap.update(var)
                elif queued:
                    expected = min(queued, key=lambda v: (-activity[v], v))
                    assert heap.pop() == expected
                    queued.discard(expected)
                assert len(heap) == len(queued)
                assert all(var in heap for var in queued)
            while queued:
                expected = min(queued, key=lambda v: (-activity[v], v))
                assert heap.pop() == expected
                queued.discard(expected)
            assert heap.is_empty()


class TestWatchedClause:
    def test_len_and_iter(self):
        clause = WatchedClause([1, -2, 3])
        assert len(clause) == 3
        assert list(clause) == [1, -2, 3]

    def test_defaults(self):
        clause = WatchedClause([1, 2])
        assert not clause.learnt
        assert clause.activity == 0.0

    def test_learnt_flag(self):
        assert WatchedClause([1], learnt=True).learnt
