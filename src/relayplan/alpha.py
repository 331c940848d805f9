"""Alpha-vector pairs over the joint relay-location space, plus the shared
backup primitives (immediate tabulation, backprojection, cross-sums).

Vectors are dense and flat over the joint space (row-major relay order,
``n_regions`` per axis). A backprojected vector for an observation branch is
nonzero only where the selected relays' components equal the observed
regions: selecting a relay reveals its current region, so a branch is a
slice of the one-step prediction of the source vector.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .belief import FactoredBelief, Observation, joint_belief
from .errors import CapExceededError, ValidationError
from .mobility import MarkovChain
from .model import Action, ScenarioConfig, cost_vector, reward_vector

CROSS_SUM_CAP = 100_000


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

    def key(self, decimals: int = 12) -> tuple:
        return (
            self.action.selected,
            np.round(self.alpha_r, decimals).tobytes(),
            np.round(self.alpha_c, decimals).tobytes(),
        )


def joint_shape(scenario: ScenarioConfig) -> tuple[int, ...]:
    return (scenario.n_regions,) * scenario.n_relays


def joint_size(scenario: ScenarioConfig) -> int:
    return scenario.n_regions**scenario.n_relays


def reward_tensor(scenario: ScenarioConfig, action: Action, ue: int = 0) -> np.ndarray:
    """R(., a) tabulated over joint states, flat."""
    shape = joint_shape(scenario)
    out = np.zeros(shape)
    for i in action:
        if i == 0:
            out += scenario.direct_reward(ue)
        else:
            vec = reward_vector(scenario, i, ue)
            out += vec.reshape((1,) * (i - 1) + (-1,) + (1,) * (scenario.n_relays - i))
    return out.reshape(-1)


def cost_tensor(scenario: ScenarioConfig, action: Action) -> np.ndarray:
    shape = joint_shape(scenario)
    out = np.zeros(shape)
    for i in action:
        if i == 0:
            out += scenario.direct_cost()
        else:
            vec = cost_vector(scenario, i)
            out += vec.reshape((1,) * (i - 1) + (-1,) + (1,) * (scenario.n_relays - i))
    return out.reshape(-1)


def immediate_pair(action: Action, scenario: ScenarioConfig, ue: int = 0) -> AlphaPair:
    """The horizon-1 pair of an action: tabulated immediate reward and cost."""
    return AlphaPair(
        alpha_r=reward_tensor(scenario, action, ue),
        alpha_c=cost_tensor(scenario, action),
        action=action,
    )


def predict_vector(vec: np.ndarray, chains: list[MarkovChain], gamma: float) -> np.ndarray:
    """One-step expectation of a joint-space vector: ``gamma * T @ alpha``."""
    shape = tuple(chain.size for chain in chains)
    t = vec.reshape(shape)
    for axis, chain in enumerate(chains):
        t = np.moveaxis(np.tensordot(chain.matrix, np.moveaxis(t, axis, 0), axes=(1, 0)), 0, axis)
    return gamma * t.reshape(-1)


def backproject(
    pair: AlphaPair,
    action: Action,
    z: Observation,
    chains: list[MarkovChain],
    gamma: float,
) -> AlphaPair:
    """Branch contribution of continuing with ``pair`` after observing ``z``.

    The prediction ``gamma * T @ alpha`` is masked to the joint states whose
    selected components match the observed regions; unselected relays leave
    the prediction untouched (their only observation carries no information).
    """
    relays = action.relays
    for i in relays:
        if z[i - 1] is None:
            raise ValidationError(f"relay {i} is selected but observation is empty")
    for i, obs in enumerate(z):
        if obs is not None and (i + 1) not in relays:
            raise ValidationError(f"relay {i + 1} is unselected but observation is {obs}")

    shape = tuple(chain.size for chain in chains)
    gr = predict_vector(pair.alpha_r, chains, gamma).reshape(shape)
    gc = predict_vector(pair.alpha_c, chains, gamma).reshape(shape)
    mask = np.zeros(shape, dtype=bool)
    index = tuple(
        z[i - 1] if i in relays else slice(None) for i in range(1, len(chains) + 1)
    )
    mask[index] = True
    return AlphaPair(
        alpha_r=np.where(mask, gr, 0.0).reshape(-1),
        alpha_c=np.where(mask, gc, 0.0).reshape(-1),
        action=action,
    )


def cross_sum(
    branch_sets: list[list[AlphaPair]],
    immediate: AlphaPair,
    cap: int = CROSS_SUM_CAP,
) -> list[AlphaPair]:
    """All per-branch combinations, each summed with the immediate pair.

    Output size is the product of branch-set sizes; a cap guards against the
    combinatorial blowup of large observation spaces.
    """
    if any(not branch for branch in branch_sets):
        raise ValidationError("every observation branch needs at least one pair")
    size = math.prod(len(branch) for branch in branch_sets)
    if size > cap:
        raise CapExceededError(
            f"cross-sum would produce {size} pairs (cap {cap}); "
            "prune branch sets or use a point-based solver"
        )
    out = []
    for combo in itertools.product(*branch_sets):
        alpha_r = immediate.alpha_r.copy()
        alpha_c = immediate.alpha_c.copy()
        for part in combo:
            alpha_r += part.alpha_r
            alpha_c += part.alpha_c
        out.append(AlphaPair(alpha_r=alpha_r, alpha_c=alpha_c, action=immediate.action))
    return out
