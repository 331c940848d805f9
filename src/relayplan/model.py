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


def _floats(obj, *names: str) -> None:
    """Store a frozen ``obj``'s numbers ``names`` as floats, as a scenario file reads them."""
    for name in names:
        object.__setattr__(obj, name, float(getattr(obj, name)))


@dataclass(frozen=True)
class DirectLink:
    """Constant reward/cost of the index-0 option (direct cellular link)."""

    reward: float
    cost: float = 0.0

    def __post_init__(self):
        _floats(self, "reward", "cost")


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
        _floats(self, "eps_fix")


@dataclass(frozen=True)
class UeSpec:
    position: Coord


@dataclass(frozen=True, order=True)
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
        _floats(self, "r_max", "c_max", "c_th", "gamma")

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

    def direct_cost(self) -> float:
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


def option_tables(scenario: ScenarioConfig) -> tuple[np.ndarray, np.ndarray]:
    """What every option pays in every region: each UE's rewards
    (N, K + 1, n) and the costs (K + 1, n), row 0 the direct link (the same
    in every region) and row ``i`` relay ``i``."""
    options, regions = range(scenario.n_relays + 1), range(scenario.n_regions)
    rewards = np.array([
        [[relay_reward(s, i, scenario, u) for s in regions] for i in options]
        for u in range(scenario.n_ues)
    ])
    costs = np.array([[relay_cost(s, i, scenario) for s in regions] for i in options])
    return rewards, costs


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
    rewards, costs = option_tables(scenario)
    r_hi = max(best[0] + sum(best[1:]) for best in rewards.max(axis=2).tolist())
    best = costs.max(axis=1).tolist()
    return r_hi, best[0] + sum(best[1:])


# --- scenario file schema ------------------------------------------------


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


def _as_list(cls):
    """Reader of a list of ``cls`` objects, entry ``i`` at ``path[i]``; a
    tuple, as ``scenario_to_dict`` gives, reads as a list."""
    def read(value, path: str) -> tuple:
        if not isinstance(value, (list, tuple)):
            raise SchemaError(path, "expected a list")
        return tuple(_parse(cls, entry, f"{path}[{i}]") for i, entry in enumerate(value))
    return read


def _as_object(cls):
    """Reader of one ``cls`` object, or None for a null."""
    return lambda value, path: None if value is None else _parse(cls, value, path)


# The scenario file's layout: every field of each object and its reader, in
# the order the fields are read (so the first problem in a file is reported).
_LAYOUT = {
    RelaySpec: {"eps_fix": _as_number, "speed": _as_int, "initial_state": _as_coord},
    UeSpec: {"position": _as_coord},
    DirectLink: {"reward": _as_number, "cost": _as_number},
    ScenarioConfig: {
        "relays": _as_list(RelaySpec), "ues": _as_list(UeSpec), "direct_link": _as_object(DirectLink),
        "grid_x": _as_int, "grid_y": _as_int, "bs_position": _as_coord, "r_max": _as_number,
        "c_max": _as_number, "c_th": _as_number, "horizon": _as_int, "gamma": _as_number,
    },
}


def _parse(cls, data, path: str):
    """Read a ``cls`` object at dotted ``path`` by its ``_LAYOUT`` entry.

    Unknown keys are rejected, then every field is read in order; a field
    may be left out exactly when its dataclass gives it a default. A value
    the dataclass refuses is reported at ``path``.
    """
    prefix = f"{path}." if path else ""
    if not isinstance(data, dict):
        raise SchemaError(path, "expected an object")
    layout = _LAYOUT[cls]
    unknown = sorted(set(data) - set(layout))
    if unknown:
        raise SchemaError(prefix + unknown[0], "unknown field")
    optional = {f.name for f in dataclasses.fields(cls) if f.default is not dataclasses.MISSING}
    values = {}
    for key, read in layout.items():
        if key in data:
            values[key] = read(data[key], prefix + key)
        elif key not in optional:
            raise SchemaError(prefix + key, "missing required field")
    try:
        return cls(**values)
    except ValidationError as exc:
        raise SchemaError(path, str(exc)) from exc


def parse_scenario(data: dict) -> ScenarioConfig:
    if not isinstance(data, dict):
        raise SchemaError("", "scenario file must contain a JSON object")
    return _parse(ScenarioConfig, data, "")


def scenario_to_dict(scenario: ScenarioConfig) -> dict:
    out = dataclasses.asdict(scenario)
    if out["direct_link"] is None:
        del out["direct_link"]
    return out


def load_scenario(path) -> ScenarioConfig:
    """Load and validate a scenario file (JSON, unknown keys rejected)."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
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
