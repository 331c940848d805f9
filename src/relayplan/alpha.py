"""Alpha-vector pairs over the joint relay-location space and the
tabulated immediate reward and cost of an action.

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
from .model import Action, ScenarioConfig, cost_vector, reward_vector


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


def _tabulate(scenario: ScenarioConfig, action: Action, direct: float, vector) -> np.ndarray:
    """Sum over the options of ``action`` of ``direct`` (option 0) or the
    per-region ``vector(i)`` of relay ``i``, over joint states, flat."""
    out = np.zeros((scenario.n_regions,) * scenario.n_relays)
    for i in action:
        if i == 0:
            out += direct
        else:
            out += vector(i).reshape((1,) * (i - 1) + (-1,) + (1,) * (scenario.n_relays - i))
    return out.reshape(-1)


def reward_tensor(scenario: ScenarioConfig, action: Action, ue: int = 0) -> np.ndarray:
    """R(., a) tabulated over joint states, flat."""
    return _tabulate(
        scenario, action, scenario.direct_reward(ue), lambda i: reward_vector(scenario, i, ue)
    )


def cost_tensor(scenario: ScenarioConfig, action: Action) -> np.ndarray:
    """C(., a) tabulated over joint states, flat."""
    return _tabulate(scenario, action, scenario.direct_cost(), lambda i: cost_vector(scenario, i))
