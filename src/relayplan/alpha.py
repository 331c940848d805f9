"""Alpha-vector pairs over the joint relay-location space and the
tabulated immediate reward and cost of an action.

Vectors are dense and flat over the joint space (row-major relay order,
``n_regions`` per axis). The backups in ``solvers`` build every other
vector from these: a pair continues, per observation branch, with a slice
of the one-step prediction of a stored pair, since selecting a relay
reveals its current region.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .belief import FactoredBelief, Observation, joint_belief
from .errors import ValidationError
from .model import Action, ScenarioConfig, cost_vector, reward_vector


@dataclass
class AlphaPair:
    """Paired reward/cost hyperplanes with the action that generated them.

    ``children`` (optional) maps observation vectors to the source pair each
    branch continues with; the exact solver fills it so a pair's value can be
    re-derived by recursive expectation in tests.
    """

    alpha_r: np.ndarray
    alpha_c: np.ndarray
    action: Action
    epoch: int = 0
    children: dict[Observation, "AlphaPair"] | None = field(default=None, repr=False)

    def __post_init__(self):
        self.alpha_r = np.asarray(self.alpha_r, dtype=float)
        self.alpha_c = np.asarray(self.alpha_c, dtype=float)
        if self.alpha_r.shape != self.alpha_c.shape:
            raise ValidationError("reward and cost vectors must have the same shape")
        if not (np.all(np.isfinite(self.alpha_r)) and np.all(np.isfinite(self.alpha_c))):
            raise ValidationError("alpha vectors must be finite")
        if np.any(self.alpha_c < -1e-9):
            raise ValidationError("cost vector entries must be >= 0")

    def evaluate(self, fb: FactoredBelief) -> tuple[float, float]:
        b = joint_belief(fb)
        return float(self.alpha_r @ b), float(self.alpha_c @ b)

    def key(self) -> tuple:
        return (
            self.action.selected,
            np.round(self.alpha_r, 12).tobytes(),
            np.round(self.alpha_c, 12).tobytes(),
        )


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
