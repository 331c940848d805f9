import pathlib

import numpy as np
import pytest

from relayplan.mobility import MarkovChain
from relayplan.model import (
    DirectLink,
    RelaySpec,
    ScenarioConfig,
    UeSpec,
    load_scenario,
)

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent


def advance_ids(ids: tuple[tuple[int, int], ...], obs) -> tuple[tuple[int, int], ...]:
    """``advance_belief`` on the belief ids of ``belief.FactorTable``, one
    episode's: observed relays reset to ``(region, 1)``, the rest advance
    ``(s, m)`` to ``(s, m + 1)``."""
    return tuple(
        (s, m + 1) if obs[i] is None else (obs[i], 1) for i, (s, m) in enumerate(ids)
    )


@pytest.fixture
def table1_scenario() -> ScenarioConfig:
    return load_scenario(REPO_ROOT / "scenarios" / "table1.json")


def random_chain(rng: np.random.Generator, n: int) -> MarkovChain:
    return MarkovChain(rng.dirichlet(np.ones(n) * rng.uniform(0.5, 3.0), size=n))


def random_reversible_chain(rng: np.random.Generator, n: int) -> MarkovChain:
    """Random reversible chain (symmetric conductances, row-normalised).

    The spectral mixing bounds assume reversibility; the grid mobility
    family is reversible, and these chains probe the same regime with
    irregular structure.
    """
    w = rng.uniform(0.05, 1.0, size=(n, n))
    w = w + w.T
    return MarkovChain(w / w.sum(axis=1, keepdims=True))


def line_scenario(
    n: int,
    relay_positions,
    horizon: int = 2,
    c_th: float = 300.0,
    gamma: float = 1.0,
    eps_fix: float = 0.6,
    direct=(25.0, 0.0),
    r_max: float = 400.0,
    c_max: float = 200.0,
    ue_x: int = 1,
    bs_x: int | None = None,
) -> ScenarioConfig:
    """1-D grid scenario with explicit relay start positions."""
    return ScenarioConfig(
        grid_x=n,
        grid_y=1,
        relays=tuple(RelaySpec(eps_fix, 1, (x, 1)) for x in relay_positions),
        ues=(UeSpec((ue_x, 1)),),
        bs_position=(bs_x if bs_x is not None else n, 1),
        r_max=r_max,
        c_max=c_max,
        c_th=c_th,
        horizon=horizon,
        gamma=gamma,
        direct_link=DirectLink(reward=direct[0], cost=direct[1]),
    )


def random_grid_scenario(rng: np.random.Generator, n_ues: int, direct: bool) -> ScenarioConfig:
    """A random 2-D scenario of one to three relays and ``n_ues`` UEs, with a
    random direct link, or with each UE's default one (``direct=False``)."""
    gx, gy = (int(v) for v in rng.integers(2, 4, size=2))

    def position():
        return int(rng.integers(1, gx + 1)), int(rng.integers(1, gy + 1))

    return ScenarioConfig(
        grid_x=gx,
        grid_y=gy,
        relays=tuple(RelaySpec(0.6, 1, position()) for _ in range(int(rng.integers(1, 4)))),
        ues=tuple(UeSpec(position()) for _ in range(n_ues)),
        bs_position=position(),
        r_max=float(rng.uniform(50, 500)),
        c_max=float(rng.uniform(50, 250)),
        c_th=100.0,
        horizon=2,
        gamma=0.9,
        direct_link=DirectLink(float(rng.uniform(0, 50)), float(rng.uniform(0, 20))) if direct else None,
    )


def random_instance(
    rng: np.random.Generator,
    k: int | None = None,
    n: int | None = None,
    t: int | None = None,
    gamma: float | None = None,
    c_th: float | None = None,
):
    """Random desk-scale instance with random chains, inside the oracle caps.

    K=2 instances stay at 2 regions and horizon <= 2 so that enumerated
    cross-sums remain tractable; K=1 instances range wider.
    """
    k = k if k is not None else int(rng.integers(1, 3))
    if k >= 2:
        n = n if n is not None else 2
        t = t if t is not None else int(rng.integers(1, 3))
    else:
        n = n if n is not None else int(rng.integers(2, 4))
        t = t if t is not None else int(rng.integers(1, 4))
    gamma = gamma if gamma is not None else float(rng.choice([0.9, 1.0]))
    scenario = ScenarioConfig(
        grid_x=n,
        grid_y=1,
        relays=tuple(
            RelaySpec(float(rng.uniform(0.1, 0.95)), 1, (int(rng.integers(1, n + 1)), 1))
            for _ in range(k)
        ),
        ues=(UeSpec((int(rng.integers(1, n + 1)), 1)),),
        bs_position=(int(rng.integers(1, n + 1)), 1),
        r_max=float(rng.uniform(50, 500)),
        c_max=float(rng.uniform(50, 250)),
        c_th=c_th if c_th is not None else float(rng.uniform(20, 400)),
        horizon=t,
        gamma=gamma,
        direct_link=DirectLink(reward=float(rng.uniform(0, 50)), cost=0.0),
    )
    chains = [random_chain(rng, n) for _ in range(k)]
    return scenario, chains
