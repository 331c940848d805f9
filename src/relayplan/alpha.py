"""Alpha-vector pairs over the joint relay-location space, and what an
action pays, read from one option table of ``model.option_tables``: summed
over its options at every joint state (``tabulate``) or in expectation at a
factored belief (``expectation``). The solvers and the oracle read
immediate rewards and costs only through these two, and the exact policy
evaluation its expected ones.

Vectors are dense and flat over the joint space (row-major relay order,
``n_regions`` per axis). The backups in ``solvers`` build every other
vector from these: a pair continues, per observation branch, with a slice
of the one-step prediction of a stored pair, since selecting a relay
reveals its current region.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .belief import FactoredBelief, joint_belief
from .errors import ValidationError
from .model import Action


@dataclass
class AlphaPair:
    """Paired reward/cost hyperplanes with the per-UE actions that generated
    them: ``alpha_r`` (flat) is the reward summed over UEs, ``alpha_cs``
    (N, flat) holds each UE's cost, and ``actions`` each UE's action. A
    single-UE pair has N = 1.
    """

    alpha_r: np.ndarray
    alpha_cs: np.ndarray
    actions: tuple[Action, ...]

    def __post_init__(self):
        self.alpha_r = np.asarray(self.alpha_r, dtype=float)
        self.alpha_cs = np.asarray(self.alpha_cs, dtype=float)
        if self.alpha_cs.shape != (len(self.actions),) + self.alpha_r.shape:
            raise ValidationError("cost vectors must be one reward-shaped row per action")
        if not (np.all(np.isfinite(self.alpha_r)) and np.all(np.isfinite(self.alpha_cs))):
            raise ValidationError("alpha vectors must be finite")
        if np.any(self.alpha_cs < -1e-9):
            raise ValidationError("cost vector entries must be >= 0")

    def evaluate(self, fb: FactoredBelief) -> tuple[float, float]:
        """The (reward, largest per-UE cost) at ``fb``: the budget binds per
        UE, so the largest cost is the one it binds first."""
        b = joint_belief(fb)
        return float(self.alpha_r @ b), max(float(c @ b) for c in self.alpha_cs)


def tabulate(rows: np.ndarray, action: Action) -> np.ndarray:
    """The sum over the options of ``action`` of their ``rows``, an option
    table (K + 1, n) of ``model.option_tables``, over joint states, flat:
    relay ``i``'s row along axis ``i``, the direct link's everywhere."""
    k = len(rows) - 1
    out = np.zeros((rows.shape[1],) * k)
    for i in action:
        out += rows[0, 0] if i == 0 else rows[i].reshape((1,) * (i - 1) + (-1,) + (1,) * (k - i))
    return out.reshape(-1)


def expectation(rows: np.ndarray, action: Action, fb: FactoredBelief) -> float:
    """The mean of ``action``'s option ``rows`` at ``fb``: the sum over the
    selected options of each relay's row under its own belief factor, and
    the direct link's as it is."""
    total = float(rows[0, 0]) if 0 in action else 0.0
    for i in action.relays:
        total += float(fb.per_relay[i - 1] @ rows[i])
    return total

