"""Problem-instance definition: geometry, reward/cost functions, actions.

A scenario lives on an ``S_x x S_y`` grid of regions. Grid coordinates are
1-based ``(x, y)`` pairs; region indices are 0-based with
``index = (x - 1) * S_y + (y - 1)`` so that a grid chain built as a
Kronecker product of an x-axis chain and a y-axis chain uses the same
ordering.

Selection option 0 is the direct cellular link, options ``1..K`` are the
mobile relays. All reward/cost functions are pure and stationary in time;
only relay locations vary.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from dataclasses import dataclass

import numpy as np

from .errors import SchemaError, ValidationError

Coord = tuple[int, int]
JointState = tuple[int, ...]


@dataclass(frozen=True)
class DirectLink:
    """Constant reward/cost of the index-0 option (direct cellular link)."""

    reward: float
    cost: float = 0.0


@dataclass(frozen=True)
class RelaySpec:
    eps_fix: float
    speed: int
    initial_state: Coord

    def __post_init__(self):
        if not 0.0 <= self.eps_fix <= 1.0:
            raise ValidationError(f"eps_fix must be in [0, 1], got {self.eps_fix}")
        if not (isinstance(self.speed, int) and self.speed >= 1):
            raise ValidationError(f"speed must be an integer >= 1, got {self.speed}")


@dataclass(frozen=True)
class UeSpec:
    position: Coord


@dataclass(frozen=True)
class Action:
    """A subset of {0, 1, ..., K}; 0 is the direct link, 1..K are relays."""

    selected: tuple[int, ...]

    def __post_init__(self):
        sel = tuple(sorted(self.selected))
        if len(set(sel)) != len(sel):
            raise ValidationError(f"action indices must be unique, got {self.selected}")
        if sel and sel[0] < 0:
            raise ValidationError(f"action indices must be >= 0, got {self.selected}")
        object.__setattr__(self, "selected", sel)

    @property
    def relays(self) -> tuple[int, ...]:
        """Selected relay indices (excludes the direct link)."""
        return tuple(i for i in self.selected if i >= 1)

    def __contains__(self, index: int) -> bool:
        return index in self.selected

    def __iter__(self):
        return iter(self.selected)

    def __len__(self):
        return len(self.selected)


EMPTY_ACTION = Action(())


@dataclass(frozen=True)
class ScenarioConfig:
    """A full problem instance.

    ``direct_link=None`` means the per-UE default: the full-rate UE->BS link
    reward (not halved) at zero cost.
    """

    grid_x: int
    grid_y: int
    relays: tuple[RelaySpec, ...]
    ues: tuple[UeSpec, ...]
    bs_position: Coord
    r_max: float
    c_max: float
    c_th: float
    horizon: int
    gamma: float
    direct_link: DirectLink | None = None

    def __post_init__(self):
        if self.grid_x < 1 or self.grid_y < 1:
            raise ValidationError(f"grid must be at least 1x1, got {self.grid_x}x{self.grid_y}")
        if not self.relays:
            raise ValidationError("at least one relay is required")
        if not self.ues:
            raise ValidationError("at least one UE is required")
        if not 0.0 <= self.gamma <= 1.0:
            raise ValidationError(f"gamma must be in [0, 1], got {self.gamma}")
        if not (isinstance(self.horizon, int) and self.horizon >= 1):
            raise ValidationError(f"horizon must be an integer >= 1, got {self.horizon}")
        if self.c_th < 0:
            raise ValidationError(f"c_th must be >= 0, got {self.c_th}")
        if self.r_max <= 0:
            raise ValidationError(f"r_max must be > 0, got {self.r_max}")
        if self.c_max <= 0:
            raise ValidationError(f"c_max must be > 0, got {self.c_max}")
        self._check_position("bs_position", self.bs_position)
        for i, relay in enumerate(self.relays):
            self._check_position(f"relays[{i}].initial_state", relay.initial_state)
        for i, ue in enumerate(self.ues):
            self._check_position(f"ues[{i}].position", ue.position)

    def _check_position(self, name: str, pos: Coord) -> None:
        x, y = pos
        if not (1 <= x <= self.grid_x and 1 <= y <= self.grid_y):
            raise ValidationError(
                f"{name}={pos} outside the {self.grid_x}x{self.grid_y} grid"
            )

    @property
    def n_relays(self) -> int:
        return len(self.relays)

    @property
    def n_ues(self) -> int:
        return len(self.ues)

    @property
    def n_regions(self) -> int:
        return self.grid_x * self.grid_y

    @property
    def initial_states(self) -> JointState:
        """Per-relay start regions as 0-based region indices."""
        return tuple(region_index(r.initial_state, self) for r in self.relays)

    def direct_reward(self, ue: int = 0) -> float:
        if self.direct_link is not None:
            return self.direct_link.reward
        return link_metric(self.ues[ue].position, self.bs_position, self)

    def direct_cost(self, ue: int = 0) -> float:
        if self.direct_link is not None:
            return self.direct_link.cost
        return 0.0

    def fingerprint(self) -> str:
        """Stable content hash used to pair scenario files with policy files."""
        blob = json.dumps(scenario_to_dict(self), sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()[:16]


def region_index(coord: Coord, scenario: ScenarioConfig) -> int:
    x, y = coord
    return (x - 1) * scenario.grid_y + (y - 1)


def region_coords(index: int, scenario: ScenarioConfig) -> Coord:
    return index // scenario.grid_y + 1, index % scenario.grid_y + 1


def validate_action(action: Action, scenario: ScenarioConfig) -> None:
    if action.selected and action.selected[-1] > scenario.n_relays:
        raise ValidationError(
            f"action {action.selected} references option > K={scenario.n_relays}"
        )


def link_metric(src: Coord, dst: Coord, scenario: ScenarioConfig) -> float:
    """Single-hop throughput of a src->dst link, in kbps/RB.

    Distance per axis is ``|delta| + 1`` so co-located endpoints get the
    full rate instead of dividing by zero.
    """
    d_x = abs(src[0] - dst[0]) + 1
    d_y = abs(src[1] - dst[1]) + 1
    return scenario.r_max / (d_x * d_y)


def relay_reward(region: int, relay_index: int, scenario: ScenarioConfig, ue: int = 0) -> float:
    """Two-hop reward of a relay at ``region``: half the min of both hops.

    Index 0 returns the direct-link reward unchanged.
    """
    if relay_index == 0:
        return scenario.direct_reward(ue)
    if not 1 <= relay_index <= scenario.n_relays:
        raise ValidationError(f"relay index {relay_index} outside 1..{scenario.n_relays}")
    pos = region_coords(region, scenario)
    up = link_metric(scenario.ues[ue].position, pos, scenario)
    down = link_metric(pos, scenario.bs_position, scenario)
    return 0.5 * min(up, down)


def relay_cost(region: int, relay_index: int, scenario: ScenarioConfig) -> float:
    """Transmission-power cost of a relay at ``region`` (mW).

    The cost depends on the relay's own position only and decays away from
    the top-right corner ``(S_x, S_y)`` where the BS sits by default.
    """
    if relay_index == 0:
        return scenario.direct_cost()
    if not 1 <= relay_index <= scenario.n_relays:
        raise ValidationError(f"relay index {relay_index} outside 1..{scenario.n_relays}")
    x, y = region_coords(region, scenario)
    return scenario.c_max / ((scenario.grid_x - x + 1) + (scenario.grid_y - y + 1))


def reward_vector(scenario: ScenarioConfig, relay_index: int, ue: int = 0) -> np.ndarray:
    """Per-region reward table for one relay, as a vector over region indices."""
    return np.array(
        [relay_reward(s, relay_index, scenario, ue) for s in range(scenario.n_regions)]
    )


def cost_vector(scenario: ScenarioConfig, relay_index: int) -> np.ndarray:
    return np.array(
        [relay_cost(s, relay_index, scenario) for s in range(scenario.n_regions)]
    )


def total_reward(state: JointState, action: Action, scenario: ScenarioConfig, ue: int = 0) -> float:
    """Sum of per-option rewards over the selected set (modular in the action)."""
    validate_action(action, scenario)
    total = 0.0
    for i in action:
        total += relay_reward(state[i - 1], i, scenario, ue) if i >= 1 else scenario.direct_reward(ue)
    return total


def total_cost(state: JointState, action: Action, scenario: ScenarioConfig) -> float:
    validate_action(action, scenario)
    total = 0.0
    for i in action:
        total += relay_cost(state[i - 1], i, scenario) if i >= 1 else scenario.direct_cost()
    return total


def value_ranges(scenario: ScenarioConfig) -> tuple[float, float]:
    """Spread between the best and worst one-epoch total reward and cost."""
    relays = range(1, scenario.n_relays + 1)
    r_hi = max(
        scenario.direct_reward(u) + sum(float(reward_vector(scenario, i, u).max()) for i in relays)
        for u in range(scenario.n_ues)
    )
    c_hi = scenario.direct_cost() + sum(float(cost_vector(scenario, i).max()) for i in relays)
    return r_hi, c_hi


# --- scenario file schema ------------------------------------------------

_TOP_KEYS = {
    "grid_x", "grid_y", "relays", "ues", "bs_position", "r_max", "c_max",
    "c_th", "horizon", "gamma", "direct_link",
}
_RELAY_KEYS = {"eps_fix", "speed", "initial_state"}
_UE_KEYS = {"position"}
_DIRECT_KEYS = {"reward", "cost"}


def _require(data: dict, key: str, path: str):
    if key not in data:
        raise SchemaError(f"{path}.{key}" if path else key, "missing required field")
    return data[key]


def _as_number(value, path: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise SchemaError(path, f"expected a number, got {value!r}")
    return float(value)


def _as_int(value, path: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise SchemaError(path, f"expected an integer, got {value!r}")
    return value


def _as_coord(value, path: str) -> Coord:
    if not (isinstance(value, (list, tuple)) and len(value) == 2):
        raise SchemaError(path, f"expected a [x, y] pair, got {value!r}")
    return _as_int(value[0], f"{path}[0]"), _as_int(value[1], f"{path}[1]")


def _reject_unknown(data: dict, allowed: set, path: str) -> None:
    unknown = set(data) - allowed
    if unknown:
        key = sorted(unknown)[0]
        raise SchemaError(f"{path}.{key}" if path else key, "unknown field")


def parse_scenario(data: dict) -> ScenarioConfig:
    if not isinstance(data, dict):
        raise SchemaError("", "scenario file must contain a JSON object")
    _reject_unknown(data, _TOP_KEYS, "")

    relays_raw = _require(data, "relays", "")
    if not isinstance(relays_raw, list):
        raise SchemaError("relays", "expected a list")
    relays = []
    for i, entry in enumerate(relays_raw):
        path = f"relays[{i}]"
        if not isinstance(entry, dict):
            raise SchemaError(path, "expected an object")
        _reject_unknown(entry, _RELAY_KEYS, path)
        try:
            relays.append(RelaySpec(
                eps_fix=_as_number(_require(entry, "eps_fix", path), f"{path}.eps_fix"),
                speed=_as_int(_require(entry, "speed", path), f"{path}.speed"),
                initial_state=_as_coord(_require(entry, "initial_state", path), f"{path}.initial_state"),
            ))
        except ValidationError as exc:
            if isinstance(exc, SchemaError):
                raise
            raise SchemaError(path, str(exc)) from exc

    ues_raw = _require(data, "ues", "")
    if not isinstance(ues_raw, list):
        raise SchemaError("ues", "expected a list")
    ues = []
    for i, entry in enumerate(ues_raw):
        path = f"ues[{i}]"
        if not isinstance(entry, dict):
            raise SchemaError(path, "expected an object")
        _reject_unknown(entry, _UE_KEYS, path)
        ues.append(UeSpec(position=_as_coord(_require(entry, "position", path), f"{path}.position")))

    direct = None
    if data.get("direct_link") is not None:
        entry = data["direct_link"]
        if not isinstance(entry, dict):
            raise SchemaError("direct_link", "expected an object")
        _reject_unknown(entry, _DIRECT_KEYS, "direct_link")
        direct = DirectLink(
            reward=_as_number(_require(entry, "reward", "direct_link"), "direct_link.reward"),
            cost=_as_number(entry.get("cost", 0.0), "direct_link.cost"),
        )

    try:
        return ScenarioConfig(
            grid_x=_as_int(_require(data, "grid_x", ""), "grid_x"),
            grid_y=_as_int(_require(data, "grid_y", ""), "grid_y"),
            relays=tuple(relays),
            ues=tuple(ues),
            bs_position=_as_coord(_require(data, "bs_position", ""), "bs_position"),
            r_max=_as_number(_require(data, "r_max", ""), "r_max"),
            c_max=_as_number(_require(data, "c_max", ""), "c_max"),
            c_th=_as_number(_require(data, "c_th", ""), "c_th"),
            horizon=_as_int(_require(data, "horizon", ""), "horizon"),
            gamma=_as_number(_require(data, "gamma", ""), "gamma"),
            direct_link=direct,
        )
    except ValidationError as exc:
        if isinstance(exc, SchemaError):
            raise
        raise SchemaError("", str(exc)) from exc


def scenario_to_dict(scenario: ScenarioConfig) -> dict:
    out = {
        "grid_x": scenario.grid_x,
        "grid_y": scenario.grid_y,
        "bs_position": list(scenario.bs_position),
        "r_max": scenario.r_max,
        "c_max": scenario.c_max,
        "c_th": scenario.c_th,
        "horizon": scenario.horizon,
        "gamma": scenario.gamma,
        "relays": [
            {
                "eps_fix": r.eps_fix,
                "speed": r.speed,
                "initial_state": list(r.initial_state),
            }
            for r in scenario.relays
        ],
        "ues": [{"position": list(u.position)} for u in scenario.ues],
    }
    if scenario.direct_link is not None:
        out["direct_link"] = {
            "reward": scenario.direct_link.reward,
            "cost": scenario.direct_link.cost,
        }
    return out


def load_scenario(path) -> ScenarioConfig:
    """Load and validate a scenario file (JSON, unknown keys rejected)."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise SchemaError("", f"not valid JSON: {exc}") from exc
    return parse_scenario(data)


def save_scenario(scenario: ScenarioConfig, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(scenario_to_dict(scenario), fh, indent=2, sort_keys=True)
        fh.write("\n")


def with_single_ue(scenario: ScenarioConfig, ue: int) -> ScenarioConfig:
    """Restrict a multi-UE scenario to one UE (used by the distributed mode)."""
    return dataclasses.replace(scenario, ues=(scenario.ues[ue],))


def all_actions(n_relays: int) -> list[Action]:
    """Every subset of the options 0..K, in deterministic order."""
    out = [EMPTY_ACTION]
    for opt in range(n_relays + 1):
        out.extend(Action(a.selected + (opt,)) for a in list(out))
    return sorted(out, key=lambda a: (len(a.selected), a.selected))
