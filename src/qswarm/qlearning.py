"""Tabular Q-learning: zero-initialised utility tables, greedy action selection
with uniform random tie-breaking, and the one-cell temporal-difference update

    Q'(s, a) = Q(s, a) + learning_rate * (r + discount * max_a' Q(s', a') - Q(s, a))

The rules work on stacks of rows, so a whole swarm's tables can be one
(M, states, actions) tensor; ``QTable`` is the one-table view of the same
functions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import is_finite


@dataclass(frozen=True)
class LearningParams:
    """Update-rule coefficients. ``explore_rate`` > 0 enables epsilon-greedy
    exploration on top of the default pure-greedy policy."""

    learning_rate: float = 0.1
    discount: float = 0.9
    explore_rate: float = 0.0

    def __post_init__(self):
        for name in ("learning_rate", "discount", "explore_rate"):
            v = getattr(self, name)
            if not (is_finite(v) and 0.0 <= v <= 1.0):
                raise ValueError(f"{name} must be in [0, 1], got {v!r}")


def greedy_actions(rows: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """For each row of utilities (K, A), an action achieving the row maximum.

    Ties are broken uniformly at random: one draw per tied row, in row order,
    all taken in a single ``rng.integers`` call. That call yields the same
    values and leaves the generator in the same state as one scalar
    ``rng.integers(ties)`` call per tied row. With no tied row there is no
    call, as an empty bound draws nothing.

    Each row's max and tie count are reductions over axis 0 of the (A, K)
    transpose, one (K,) line at a time, several times faster than along the
    A-long rows (see ``mql.summarize``).
    """
    cols = rows.T.copy()
    ties = cols == np.maximum.reduce(cols, axis=0)
    counts = np.add.reduce(ties, axis=0)
    # the row's first tied column in the row-major list of (row, column)
    # ties: a row's tied columns are consecutive there, in ascending order
    pick = np.add.accumulate(counts) - counts
    tied = counts > 1
    if np.count_nonzero(tied):
        pick[tied] += rng.integers(counts[tied])
    return ties.T.ravel().nonzero()[0][pick] % len(cols)


def epsilon_greedy_actions(rows: np.ndarray, explore_rate: float,
                           rng: np.random.Generator) -> np.ndarray:
    """Greedy selection per row, except with probability ``explore_rate`` a
    uniformly random action is taken instead. Rate 0 never draws for
    exploration; otherwise each row draws its exploration coin before its
    tie-break, row by row."""
    if explore_rate <= 0.0:
        return greedy_actions(rows, rng)
    out = np.empty(len(rows), dtype=np.int64)
    for k in range(len(rows)):
        if rng.random() < explore_rate:
            out[k] = rng.integers(rows.shape[1])
        else:
            out[k] = greedy_actions(rows[k:k + 1], rng)[0]
    return out


def td_update(q: np.ndarray, rows, states, actions, rewards,
              next_states, params: LearningParams) -> np.ndarray:
    """Apply the temporal-difference update to cell (states[k], actions[k]) of
    table q[rows[k]] for every k and return the new values. Each lookahead
    reads its table as it was before the write; each lookahead's max is a
    reduction over axis 0 of the (A, K) transpose, as in ``greedy_actions``."""
    best_next = np.maximum.reduce(q[rows, next_states].T.copy(), axis=0)
    old = q[rows, states, actions]
    new = old + params.learning_rate * (rewards + params.discount * best_next - old)
    q[rows, states, actions] = new
    return new


class QTable:
    """A fixed-shape state x action utility matrix, initialised to all zeros.
    Its selection and update are one-row calls of the array functions above."""

    def __init__(self, num_states: int, num_actions: int):
        if num_states < 1 or num_actions < 1:
            raise ValueError(
                f"QTable dimensions must be >= 1, got ({num_states}, {num_actions})"
            )
        self.num_states = int(num_states)
        self.num_actions = int(num_actions)
        self.values = np.zeros((self.num_states, self.num_actions), dtype=float)

    def _check_state(self, state: int) -> int:
        s = int(state)
        if not 0 <= s < self.num_states:
            raise IndexError(f"state {state} out of range [0, {self.num_states})")
        return s

    def _check_action(self, action: int) -> int:
        a = int(action)
        if not 0 <= a < self.num_actions:
            raise IndexError(f"action {action} out of range [0, {self.num_actions})")
        return a

    def max_q(self, state: int) -> float:
        """Highest utility over all actions available in ``state``."""
        return float(self.values[self._check_state(state)].max())

    def greedy_action(self, state: int, rng: np.random.Generator) -> int:
        """An action achieving max_q; ties are broken uniformly at random."""
        s = self._check_state(state)
        return int(greedy_actions(self.values[s:s + 1], rng)[0])

    def epsilon_greedy_action(self, state: int, explore_rate: float,
                              rng: np.random.Generator) -> int:
        """Greedy selection, except with probability ``explore_rate`` a uniformly
        random action is taken instead. Rate 0 never draws for exploration."""
        s = self._check_state(state)
        return int(epsilon_greedy_actions(self.values[s:s + 1], explore_rate, rng)[0])

    def update(self, state: int, action: int, reward: float, next_state: int,
               params: LearningParams) -> float:
        """Apply the temporal-difference update to the (state, action) cell only
        and return the new value. The next-state lookahead uses the table as it
        was before the write."""
        s = self._check_state(state)
        a = self._check_action(action)
        if not math.isfinite(reward):
            raise ValueError(f"reward must be finite, got {reward!r}")
        return float(td_update(self.values[None], [0], [s], [a], [reward],
                               [self._check_state(next_state)], params)[0])
