"""Closed-form reference values, computed from a scenario's stated rules.

Nothing here imports relayplan: the rules are re-derived from the scenario
file format and the conventions the project documents, so a fault in the
package's models cannot hide in the reference.

* Regions are indexed ``(x - 1) * grid_y + (y - 1)``.
* A link's rate is ``r_max / ((|dx| + 1) * (|dy| + 1))``; a relay earns half
  the smaller of its two hops and costs ``c_max / ((grid_x - x + 1) +
  (grid_y - y + 1))``. The direct link earns the UE-to-BS rate at zero cost
  unless the scenario gives ``direct_link``.
* Each relay moves on the Kronecker product of two axis chains that stay with
  probability ``sqrt(eps_fix)`` and step to each neighbour with half the
  rest, folding an off-grid step into the stay; speed ``v`` is the chain's
  ``v``-th power.

Select-all, selecting every option in every epoch, earns the most any policy
can, since every option's reward is non-negative and no action changes where
the relays go. It is the constrained optimum whenever its cost fits the
budget. The cellular value is what the direct link alone earns.
"""

from __future__ import annotations

import json
import math

import numpy as np


def load(path) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _rate(src, dst, r_max: float) -> float:
    return r_max / ((abs(src[0] - dst[0]) + 1) * (abs(src[1] - dst[1]) + 1))


def _coords(sc: dict) -> list[tuple[int, int]]:
    return [(x, y) for x in range(1, sc["grid_x"] + 1) for y in range(1, sc["grid_y"] + 1)]


def _axis_chain(n: int, eps_fix: float) -> np.ndarray:
    stay = math.sqrt(eps_fix)
    move = 0.5 * (1.0 - stay)
    m = np.diag(np.full(n, stay))
    for i in range(n):
        for j in (i - 1, i + 1):
            if 0 <= j < n:
                m[i, j] += move
            else:
                m[i, i] += move
    return m


def _relay_chain(sc: dict, relay: dict) -> np.ndarray:
    step = np.kron(
        _axis_chain(sc["grid_x"], relay["eps_fix"]), _axis_chain(sc["grid_y"], relay["eps_fix"])
    )
    return np.linalg.matrix_power(step, relay["speed"])


def _direct(sc: dict, ue: int) -> tuple[float, float]:
    link = sc.get("direct_link")
    if link is not None:
        return float(link["reward"]), float(link.get("cost", 0.0))
    return _rate(sc["ues"][ue]["position"], sc["bs_position"], sc["r_max"]), 0.0


def cellular(sc: dict, ue: int = 0) -> tuple[float, float]:
    """Discounted (reward, cost) of playing the direct link in every epoch."""
    rate, power = _direct(sc, ue)
    r = c = 0.0
    for t in range(sc["horizon"]):
        r += sc["gamma"] ** t * rate
        c += sc["gamma"] ** t * power
    return r, c


def select_all(sc: dict, ue: int = 0) -> tuple[float, float]:
    """Discounted expected (reward, cost) of selecting every option every epoch."""
    coords = _coords(sc)
    ue_pos, bs = sc["ues"][ue]["position"], sc["bs_position"]
    gx, gy = sc["grid_x"], sc["grid_y"]
    reward = np.array([0.5 * min(_rate(ue_pos, p, sc["r_max"]), _rate(p, bs, sc["r_max"])) for p in coords])
    cost = np.array([sc["c_max"] / ((gx - x + 1) + (gy - y + 1)) for x, y in coords])
    rate, power = _direct(sc, ue)
    r = c = 0.0
    dists = []
    chains = []
    for relay in sc["relays"]:
        d = np.zeros(len(coords))
        d[coords.index(tuple(relay["initial_state"]))] = 1.0
        dists.append(d)
        chains.append(_relay_chain(sc, relay))
    for t in range(sc["horizon"]):
        weight = sc["gamma"] ** t
        r += weight * (rate + sum(float(d @ reward) for d in dists))
        c += weight * (power + sum(float(d @ cost) for d in dists))
        dists = [d @ p for d, p in zip(dists, chains)]
    return r, c


def totals(sc: dict) -> dict:
    """Select-all and cellular values summed over the scenario's UEs."""
    ues = range(len(sc["ues"]))
    per_ue = [select_all(sc, u) for u in ues]
    return {
        "select_all_reward": math.fsum(r for r, _ in per_ue),
        "select_all_cost_per_ue": [c for _, c in per_ue],
        "cellular_reward": math.fsum(cellular(sc, u)[0] for u in ues),
        "cellular_cost": math.fsum(cellular(sc, u)[1] for u in ues),
        "c_th": float(sc["c_th"]),
    }
