"""Indexed max-heap ordered by variable activity (the VSIDS order heap).

MiniSat keeps undecided variables in a binary heap keyed by their activity so
that the next branching variable can be extracted in ``O(log n)`` and activity
bumps can percolate the variable up in ``O(log n)``.  This module is a direct
Python port of that data structure: an array-based binary heap with an
``indices`` side table so membership tests and ``decrease``/``increase`` key
operations are constant / logarithmic time.
"""

from __future__ import annotations

from collections.abc import Iterable


class ActivityHeap:
    """Max-heap of variable indices keyed by an external activity array."""

    def __init__(self, activity: list[float]):
        # ``activity`` is shared with the solver and indexed by variable (1-based);
        # index 0 is unused padding.
        self._activity = activity
        self._heap: list[int] = []
        self._indices: dict[int, int] = {}

    def __len__(self) -> int:
        return len(self._heap)

    def __contains__(self, var: int) -> bool:
        return var in self._indices

    def is_empty(self) -> bool:
        """True when no variable is queued."""
        return not self._heap

    # ------------------------------------------------------------------ heap ops
    # Max-heap on activity; ties go to the smaller variable index, so the
    # order is total and deterministic.  Both sifts move a hole instead of
    # swapping, with the arrays and the compared activity in locals: the
    # solver sifts on every activity bump and every backtracked variable.
    def _sift_up(self, i: int) -> None:
        heap = self._heap
        indices = self._indices
        activity = self._activity
        var = heap[i]
        act = activity[var]
        while i > 0:
            parent = (i - 1) >> 1
            above = heap[parent]
            above_act = activity[above]
            if act > above_act or (act == above_act and var < above):
                heap[i] = above
                indices[above] = i
                i = parent
            else:
                break
        heap[i] = var
        indices[var] = i

    def _sift_down(self, i: int) -> None:
        heap = self._heap
        indices = self._indices
        activity = self._activity
        size = len(heap)
        var = heap[i]
        act = activity[var]
        while True:
            child = 2 * i + 1
            if child >= size:
                break
            child_var = heap[child]
            child_act = activity[child_var]
            right = child + 1
            if right < size:
                right_var = heap[right]
                right_act = activity[right_var]
                if right_act > child_act or (right_act == child_act and right_var < child_var):
                    child, child_var, child_act = right, right_var, right_act
            if child_act > act or (child_act == act and child_var < var):
                heap[i] = child_var
                indices[child_var] = i
                i = child
            else:
                break
        heap[i] = var
        indices[var] = i

    # ------------------------------------------------------------------ public
    def push(self, var: int) -> None:
        """Insert a variable (no-op when already present)."""
        if var in self._indices:
            return
        self._heap.append(var)
        self._indices[var] = len(self._heap) - 1
        self._sift_up(len(self._heap) - 1)

    def pop(self) -> int:
        """Remove and return the variable with the highest activity."""
        if not self._heap:
            raise IndexError("pop from an empty ActivityHeap")
        top = self._heap[0]
        last = self._heap.pop()
        del self._indices[top]
        if self._heap:
            self._heap[0] = last
            self._indices[last] = 0
            self._sift_down(0)
        return top

    def update(self, var: int) -> None:
        """Restore the heap property after ``var``'s activity increased."""
        idx = self._indices.get(var)
        if idx is not None:
            self._sift_up(idx)

    def rebuild(self, variables: Iterable[int]) -> None:
        """Rebuild the heap from scratch over ``variables`` (used after rescaling)."""
        self._heap = list(variables)
        self._indices = {var: i for i, var in enumerate(self._heap)}
        for i in range(len(self._heap) // 2 - 1, -1, -1):
            self._sift_down(i)
