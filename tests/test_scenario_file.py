"""The scenario file format, pinned: the shipped files' fingerprints, the
exact error for each malformed input, and the bytes ``save_scenario`` writes.

Every expected value here was taken from the hand-written reader and writer
that ``relayplan.model``'s field table replaced, so a change to the format
shows up as a failing pin rather than as a policy file that no longer
matches its scenario.
"""

import copy
import dataclasses
import hashlib
import json
import os
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import REPO_ROOT
from relayplan import model
from relayplan.model import (
    DirectLink,
    RelaySpec,
    ScenarioConfig,
    UeSpec,
    load_scenario,
    parse_scenario,
    save_scenario,
)

SHIPPED = {
    "scenarios/table1.json": (
        "ab371ea38490156a", "531230840977cbdd2068ef2f8a090872413f06d68872f66494d8e265271d337a",
    ),
    "perfbench/scenarios/multiuser_8b.json": (
        "eef3dc61b361fd2a", "3f3f2284591ae0a37235444334158a4f54d79d70b4b7e29c320a0046dec6f6f5",
    ),
}


@pytest.mark.parametrize("name", sorted(SHIPPED))
def test_shipped_fingerprint_and_bytes(name, tmp_path):
    fingerprint, digest = SHIPPED[name]
    scenario = load_scenario(REPO_ROOT / name)
    assert scenario.fingerprint() == fingerprint
    save_scenario(scenario, tmp_path / "copy.json")
    assert hashlib.sha256((tmp_path / "copy.json").read_bytes()).hexdigest() == digest


# --- malformed inputs ---------------------------------------------------------
# Each case edits table1.json at one or more key paths; MISSING deletes the key
# and the empty path replaces the whole file.

MISSING = object()
INTS = [
    ("missing", MISSING), ("null", None), ("string", "4"), ("bool", True), ("float", 4.5),
    ("zero", 0), ("negative", -1), ("list", [4]), ("object", {"v": 4}),
]
NUMBERS = [
    ("missing", MISSING), ("null", None), ("string", "1"), ("bool", True), ("negative", -1.0),
    ("list", [1.0]), ("object", {}), ("int", 2), ("big", 1.5),
]
COORDS = [
    ("missing", MISSING), ("null", None), ("string", "1,1"), ("bool", True), ("short", [1]),
    ("long", [1, 2, 3]), ("float", [1.5, 1]), ("str_entry", [1, "a"]), ("bool_entry", [True, 1]),
    ("outside", [5, 1]), ("zero", [0, 1]), ("object", {"x": 1}), ("tuple_float", [1, 2.0]),
]
LISTS = [
    ("missing", MISSING), ("null", None), ("string", "x"), ("bool", True), ("object", {}),
    ("empty", []), ("null_entry", [None]), ("string_entry", ["x"]), ("list_entry", [[]]),
]
DIRECT = [
    ("null", None), ("empty", {}), ("no_cost", {"reward": 10.0}),
    ("null_cost", {"reward": 10.0, "cost": None}), ("string", "x"), ("bool", True), ("list", []),
    ("full", {"reward": 10.0, "cost": 2.0}), ("int_values", {"reward": 10, "cost": 2}),
    ("no_reward", {"cost": 1.0}), ("null_reward", {"reward": None}),
    ("string_reward", {"reward": "a", "cost": 1.0}), ("bool_cost", {"reward": 1.0, "cost": False}),
    ("negative_cost", {"reward": 1.0, "cost": -3.0}), ("zero_cost", {"reward": 10.0, "cost": 0.0}),
]
FIELDS = [
    (("grid_x",), INTS), (("grid_y",), INTS), (("horizon",), INTS),
    (("r_max",), NUMBERS), (("c_max",), NUMBERS), (("c_th",), NUMBERS), (("gamma",), NUMBERS),
    (("bs_position",), COORDS), (("relays",), LISTS), (("ues",), LISTS),
    (("relays", 1, "speed"), INTS), (("relays", 1, "eps_fix"), NUMBERS),
    (("relays", 1, "initial_state"), COORDS), (("ues", 0, "position"), COORDS),
    (("direct_link",), DIRECT),
]


def _name(path: tuple) -> str:
    return "".join(f"[{p}]" if isinstance(p, int) else f".{p}" for p in path).lstrip(".")


CASES = {f"{_name(path)}-{tag}": [(path, value)] for path, values in FIELDS for tag, value in values}
CASES.update({
    "unknown-top": [(("wrap_around",), True)],
    "unknown-top-two": [(("zz",), 1), (("aa",), 1)],
    "unknown-relay": [(("relays", 0, "velocity"), 2)],
    "unknown-ue": [(("ues", 0, "speed"), 1)],
    "unknown-direct": [(("direct_link",), {"reward": 1.0, "extra": 2})],
    "two-unknown-then-relay": [(("wrap_around",), True), (("relays", 0, "speed"), "x")],
    "two-relay-and-grid": [(("relays", 2, "speed"), "x"), (("grid_x",), MISSING)],
    "two-relay-order": [(("relays", 0, "initial_state"), MISSING), (("relays", 0, "speed"), 0)],
    "two-relay-speed-and-eps": [(("relays", 0, "speed"), 0), (("relays", 0, "eps_fix"), 2.0)],
    "two-ue-and-direct": [(("ues", 0, "position"), None), (("direct_link",), "x")],
    "two-direct-and-gamma": [(("direct_link",), {}), (("gamma",), "x")],
    "two-gamma-and-horizon": [(("gamma",), 1.5), (("horizon",), 0)],
    "two-grid-and-gamma": [(("grid_x",), "a"), (("gamma",), 1.5)],
    "two-ues-and-relays": [(("ues",), []), (("relays",), [])],
    "two-unknown-relay-and-ue": [(("ues", 0, "zz"), 1), (("relays", 1, "aa"), 1)],
    "top-not-object": [((), [])],
    "top-string": [((), "x")],
})

# Per case: the exception's type and message, or "ok" and the fingerprint.
EXPECTED = {
    'grid_x-missing': ('SchemaError', 'grid_x: missing required field'),
    'grid_x-null': ('SchemaError', 'grid_x: expected an integer, got None'),
    'grid_x-string': ('SchemaError', "grid_x: expected an integer, got '4'"),
    'grid_x-bool': ('SchemaError', 'grid_x: expected an integer, got True'),
    'grid_x-float': ('SchemaError', 'grid_x: expected an integer, got 4.5'),
    'grid_x-zero': ('SchemaError', ': grid must be at least 1x1, got 0x4'),
    'grid_x-negative': ('SchemaError', ': grid must be at least 1x1, got -1x4'),
    'grid_x-list': ('SchemaError', 'grid_x: expected an integer, got [4]'),
    'grid_x-object': ('SchemaError', "grid_x: expected an integer, got {'v': 4}"),
    'grid_y-missing': ('SchemaError', 'grid_y: missing required field'),
    'grid_y-null': ('SchemaError', 'grid_y: expected an integer, got None'),
    'grid_y-string': ('SchemaError', "grid_y: expected an integer, got '4'"),
    'grid_y-bool': ('SchemaError', 'grid_y: expected an integer, got True'),
    'grid_y-float': ('SchemaError', 'grid_y: expected an integer, got 4.5'),
    'grid_y-zero': ('SchemaError', ': grid must be at least 1x1, got 4x0'),
    'grid_y-negative': ('SchemaError', ': grid must be at least 1x1, got 4x-1'),
    'grid_y-list': ('SchemaError', 'grid_y: expected an integer, got [4]'),
    'grid_y-object': ('SchemaError', "grid_y: expected an integer, got {'v': 4}"),
    'horizon-missing': ('SchemaError', 'horizon: missing required field'),
    'horizon-null': ('SchemaError', 'horizon: expected an integer, got None'),
    'horizon-string': ('SchemaError', "horizon: expected an integer, got '4'"),
    'horizon-bool': ('SchemaError', 'horizon: expected an integer, got True'),
    'horizon-float': ('SchemaError', 'horizon: expected an integer, got 4.5'),
    'horizon-zero': ('SchemaError', ': horizon must be an integer >= 1, got 0'),
    'horizon-negative': ('SchemaError', ': horizon must be an integer >= 1, got -1'),
    'horizon-list': ('SchemaError', 'horizon: expected an integer, got [4]'),
    'horizon-object': ('SchemaError', "horizon: expected an integer, got {'v': 4}"),
    'r_max-missing': ('SchemaError', 'r_max: missing required field'),
    'r_max-null': ('SchemaError', 'r_max: expected a number, got None'),
    'r_max-string': ('SchemaError', "r_max: expected a number, got '1'"),
    'r_max-bool': ('SchemaError', 'r_max: expected a number, got True'),
    'r_max-negative': ('SchemaError', ': r_max must be > 0, got -1.0'),
    'r_max-list': ('SchemaError', 'r_max: expected a number, got [1.0]'),
    'r_max-object': ('SchemaError', 'r_max: expected a number, got {}'),
    'r_max-int': ('ok', 'a3a480a61d88be36'),
    'r_max-big': ('ok', '9b1ba5f5980b2463'),
    'c_max-missing': ('SchemaError', 'c_max: missing required field'),
    'c_max-null': ('SchemaError', 'c_max: expected a number, got None'),
    'c_max-string': ('SchemaError', "c_max: expected a number, got '1'"),
    'c_max-bool': ('SchemaError', 'c_max: expected a number, got True'),
    'c_max-negative': ('SchemaError', ': c_max must be > 0, got -1.0'),
    'c_max-list': ('SchemaError', 'c_max: expected a number, got [1.0]'),
    'c_max-object': ('SchemaError', 'c_max: expected a number, got {}'),
    'c_max-int': ('ok', 'e2e52b491c67c73e'),
    'c_max-big': ('ok', '8b484700e172a878'),
    'c_th-missing': ('SchemaError', 'c_th: missing required field'),
    'c_th-null': ('SchemaError', 'c_th: expected a number, got None'),
    'c_th-string': ('SchemaError', "c_th: expected a number, got '1'"),
    'c_th-bool': ('SchemaError', 'c_th: expected a number, got True'),
    'c_th-negative': ('SchemaError', ': c_th must be >= 0, got -1.0'),
    'c_th-list': ('SchemaError', 'c_th: expected a number, got [1.0]'),
    'c_th-object': ('SchemaError', 'c_th: expected a number, got {}'),
    'c_th-int': ('ok', '1a55a58e42690f4b'),
    'c_th-big': ('ok', '8bb2241f9e764a02'),
    'gamma-missing': ('SchemaError', 'gamma: missing required field'),
    'gamma-null': ('SchemaError', 'gamma: expected a number, got None'),
    'gamma-string': ('SchemaError', "gamma: expected a number, got '1'"),
    'gamma-bool': ('SchemaError', 'gamma: expected a number, got True'),
    'gamma-negative': ('SchemaError', ': gamma must be in [0, 1], got -1.0'),
    'gamma-list': ('SchemaError', 'gamma: expected a number, got [1.0]'),
    'gamma-object': ('SchemaError', 'gamma: expected a number, got {}'),
    'gamma-int': ('SchemaError', ': gamma must be in [0, 1], got 2.0'),
    'gamma-big': ('SchemaError', ': gamma must be in [0, 1], got 1.5'),
    'bs_position-missing': ('SchemaError', 'bs_position: missing required field'),
    'bs_position-null': ('SchemaError', 'bs_position: expected a [x, y] pair, got None'),
    'bs_position-string': ('SchemaError', "bs_position: expected a [x, y] pair, got '1,1'"),
    'bs_position-bool': ('SchemaError', 'bs_position: expected a [x, y] pair, got True'),
    'bs_position-short': ('SchemaError', 'bs_position: expected a [x, y] pair, got [1]'),
    'bs_position-long': ('SchemaError', 'bs_position: expected a [x, y] pair, got [1, 2, 3]'),
    'bs_position-float': ('SchemaError', 'bs_position[0]: expected an integer, got 1.5'),
    'bs_position-str_entry': ('SchemaError', "bs_position[1]: expected an integer, got 'a'"),
    'bs_position-bool_entry': ('SchemaError', 'bs_position[0]: expected an integer, got True'),
    'bs_position-outside': ('SchemaError', ': bs_position=(5, 1) outside the 4x4 grid'),
    'bs_position-zero': ('SchemaError', ': bs_position=(0, 1) outside the 4x4 grid'),
    'bs_position-object': ('SchemaError', "bs_position: expected a [x, y] pair, got {'x': 1}"),
    'bs_position-tuple_float': ('SchemaError', 'bs_position[1]: expected an integer, got 2.0'),
    'relays-missing': ('SchemaError', 'relays: missing required field'),
    'relays-null': ('SchemaError', 'relays: expected a list'),
    'relays-string': ('SchemaError', 'relays: expected a list'),
    'relays-bool': ('SchemaError', 'relays: expected a list'),
    'relays-object': ('SchemaError', 'relays: expected a list'),
    'relays-empty': ('SchemaError', ': at least one relay is required'),
    'relays-null_entry': ('SchemaError', 'relays[0]: expected an object'),
    'relays-string_entry': ('SchemaError', 'relays[0]: expected an object'),
    'relays-list_entry': ('SchemaError', 'relays[0]: expected an object'),
    'ues-missing': ('SchemaError', 'ues: missing required field'),
    'ues-null': ('SchemaError', 'ues: expected a list'),
    'ues-string': ('SchemaError', 'ues: expected a list'),
    'ues-bool': ('SchemaError', 'ues: expected a list'),
    'ues-object': ('SchemaError', 'ues: expected a list'),
    'ues-empty': ('SchemaError', ': at least one UE is required'),
    'ues-null_entry': ('SchemaError', 'ues[0]: expected an object'),
    'ues-string_entry': ('SchemaError', 'ues[0]: expected an object'),
    'ues-list_entry': ('SchemaError', 'ues[0]: expected an object'),
    'relays[1].speed-missing': ('SchemaError', 'relays[1].speed: missing required field'),
    'relays[1].speed-null': ('SchemaError', 'relays[1].speed: expected an integer, got None'),
    'relays[1].speed-string': ('SchemaError', "relays[1].speed: expected an integer, got '4'"),
    'relays[1].speed-bool': ('SchemaError', 'relays[1].speed: expected an integer, got True'),
    'relays[1].speed-float': ('SchemaError', 'relays[1].speed: expected an integer, got 4.5'),
    'relays[1].speed-zero': ('SchemaError', 'relays[1]: speed must be an integer >= 1, got 0'),
    'relays[1].speed-negative': ('SchemaError', 'relays[1]: speed must be an integer >= 1, got -1'),
    'relays[1].speed-list': ('SchemaError', 'relays[1].speed: expected an integer, got [4]'),
    'relays[1].speed-object': ('SchemaError', "relays[1].speed: expected an integer, got {'v': 4}"),
    'relays[1].eps_fix-missing': ('SchemaError', 'relays[1].eps_fix: missing required field'),
    'relays[1].eps_fix-null': ('SchemaError', 'relays[1].eps_fix: expected a number, got None'),
    'relays[1].eps_fix-string': ('SchemaError', "relays[1].eps_fix: expected a number, got '1'"),
    'relays[1].eps_fix-bool': ('SchemaError', 'relays[1].eps_fix: expected a number, got True'),
    'relays[1].eps_fix-negative': ('SchemaError', 'relays[1]: eps_fix must be in [0, 1], got -1.0'),
    'relays[1].eps_fix-list': ('SchemaError', 'relays[1].eps_fix: expected a number, got [1.0]'),
    'relays[1].eps_fix-object': ('SchemaError', 'relays[1].eps_fix: expected a number, got {}'),
    'relays[1].eps_fix-int': ('SchemaError', 'relays[1]: eps_fix must be in [0, 1], got 2.0'),
    'relays[1].eps_fix-big': ('SchemaError', 'relays[1]: eps_fix must be in [0, 1], got 1.5'),
    'relays[1].initial_state-missing': ('SchemaError', 'relays[1].initial_state: missing required field'),
    'relays[1].initial_state-null': ('SchemaError', 'relays[1].initial_state: expected a [x, y] pair, got None'),
    'relays[1].initial_state-string': ('SchemaError', "relays[1].initial_state: expected a [x, y] pair, got '1,1'"),
    'relays[1].initial_state-bool': ('SchemaError', 'relays[1].initial_state: expected a [x, y] pair, got True'),
    'relays[1].initial_state-short': ('SchemaError', 'relays[1].initial_state: expected a [x, y] pair, got [1]'),
    'relays[1].initial_state-long': ('SchemaError', 'relays[1].initial_state: expected a [x, y] pair, got [1, 2, 3]'),
    'relays[1].initial_state-float': ('SchemaError', 'relays[1].initial_state[0]: expected an integer, got 1.5'),
    'relays[1].initial_state-str_entry': ('SchemaError', "relays[1].initial_state[1]: expected an integer, got 'a'"),
    'relays[1].initial_state-bool_entry': ('SchemaError', 'relays[1].initial_state[0]: expected an integer, got True'),
    'relays[1].initial_state-outside': ('SchemaError', ': relays[1].initial_state=(5, 1) outside the 4x4 grid'),
    'relays[1].initial_state-zero': ('SchemaError', ': relays[1].initial_state=(0, 1) outside the 4x4 grid'),
    'relays[1].initial_state-object': ('SchemaError', "relays[1].initial_state: expected a [x, y] pair, got {'x': 1}"),
    'relays[1].initial_state-tuple_float': ('SchemaError', 'relays[1].initial_state[1]: expected an integer, got 2.0'),
    'ues[0].position-missing': ('SchemaError', 'ues[0].position: missing required field'),
    'ues[0].position-null': ('SchemaError', 'ues[0].position: expected a [x, y] pair, got None'),
    'ues[0].position-string': ('SchemaError', "ues[0].position: expected a [x, y] pair, got '1,1'"),
    'ues[0].position-bool': ('SchemaError', 'ues[0].position: expected a [x, y] pair, got True'),
    'ues[0].position-short': ('SchemaError', 'ues[0].position: expected a [x, y] pair, got [1]'),
    'ues[0].position-long': ('SchemaError', 'ues[0].position: expected a [x, y] pair, got [1, 2, 3]'),
    'ues[0].position-float': ('SchemaError', 'ues[0].position[0]: expected an integer, got 1.5'),
    'ues[0].position-str_entry': ('SchemaError', "ues[0].position[1]: expected an integer, got 'a'"),
    'ues[0].position-bool_entry': ('SchemaError', 'ues[0].position[0]: expected an integer, got True'),
    'ues[0].position-outside': ('SchemaError', ': ues[0].position=(5, 1) outside the 4x4 grid'),
    'ues[0].position-zero': ('SchemaError', ': ues[0].position=(0, 1) outside the 4x4 grid'),
    'ues[0].position-object': ('SchemaError', "ues[0].position: expected a [x, y] pair, got {'x': 1}"),
    'ues[0].position-tuple_float': ('SchemaError', 'ues[0].position[1]: expected an integer, got 2.0'),
    'direct_link-null': ('ok', 'ab371ea38490156a'),
    'direct_link-empty': ('SchemaError', 'direct_link.reward: missing required field'),
    'direct_link-no_cost': ('ok', '58351b17afbc3ee0'),
    'direct_link-null_cost': ('SchemaError', 'direct_link.cost: expected a number, got None'),
    'direct_link-string': ('SchemaError', 'direct_link: expected an object'),
    'direct_link-bool': ('SchemaError', 'direct_link: expected an object'),
    'direct_link-list': ('SchemaError', 'direct_link: expected an object'),
    'direct_link-full': ('ok', 'dc212b6bac8b9980'),
    'direct_link-int_values': ('ok', 'dc212b6bac8b9980'),
    'direct_link-no_reward': ('SchemaError', 'direct_link.reward: missing required field'),
    'direct_link-null_reward': ('SchemaError', 'direct_link.reward: expected a number, got None'),
    'direct_link-string_reward': ('SchemaError', "direct_link.reward: expected a number, got 'a'"),
    'direct_link-bool_cost': ('SchemaError', 'direct_link.cost: expected a number, got False'),
    'direct_link-negative_cost': ('ok', '03804d788c0f745b'),
    'direct_link-zero_cost': ('ok', '58351b17afbc3ee0'),
    'unknown-top': ('SchemaError', 'wrap_around: unknown field'),
    'unknown-top-two': ('SchemaError', 'aa: unknown field'),
    'unknown-relay': ('SchemaError', 'relays[0].velocity: unknown field'),
    'unknown-ue': ('SchemaError', 'ues[0].speed: unknown field'),
    'unknown-direct': ('SchemaError', 'direct_link.extra: unknown field'),
    'two-unknown-then-relay': ('SchemaError', 'wrap_around: unknown field'),
    'two-relay-and-grid': ('SchemaError', "relays[2].speed: expected an integer, got 'x'"),
    'two-relay-order': ('SchemaError', 'relays[0].initial_state: missing required field'),
    'two-relay-speed-and-eps': ('SchemaError', 'relays[0]: eps_fix must be in [0, 1], got 2.0'),
    'two-ue-and-direct': ('SchemaError', 'ues[0].position: expected a [x, y] pair, got None'),
    'two-direct-and-gamma': ('SchemaError', 'direct_link.reward: missing required field'),
    'two-gamma-and-horizon': ('SchemaError', ': gamma must be in [0, 1], got 1.5'),
    'two-grid-and-gamma': ('SchemaError', "grid_x: expected an integer, got 'a'"),
    'two-ues-and-relays': ('SchemaError', ': at least one relay is required'),
    'two-unknown-relay-and-ue': ('SchemaError', 'relays[1].aa: unknown field'),
    'top-not-object': ('SchemaError', ': scenario file must contain a JSON object'),
    'top-string': ('SchemaError', ': scenario file must contain a JSON object'),
}


def _edited(edits: list) -> object:
    data = json.loads((REPO_ROOT / "scenarios" / "table1.json").read_text())
    for path, value in edits:
        if not path:
            data = value
            continue
        target = data
        for key in path[:-1]:
            target = target[key]
        if value is MISSING:
            del target[path[-1]]
        else:
            target[path[-1]] = copy.deepcopy(value)
    return json.loads(json.dumps(data))


def test_every_case_is_pinned():
    assert list(CASES) == list(EXPECTED)


@pytest.mark.parametrize("case", list(CASES))
def test_input_gives_the_pinned_outcome(case):
    kind, want = EXPECTED[case]
    try:
        scenario = parse_scenario(_edited(CASES[case]))
    except Exception as exc:  # the exception's type is part of the pin
        assert (type(exc).__name__, str(exc)) == (kind, want)
    else:
        assert ("ok", scenario.fingerprint()) == (kind, want)


# --- the writer ---------------------------------------------------------------


def reference_to_dict(scenario: ScenarioConfig) -> dict:
    """The hand-written writer the field table replaced, kept as the reference."""
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


@st.composite
def scenarios(draw) -> ScenarioConfig:
    """Valid scenarios of one or several relays and UEs, with and without a
    direct link, whose numbers may be ints or floats as a caller may pass."""
    gx, gy = draw(st.integers(1, 5)), draw(st.integers(1, 5))
    coord = st.tuples(st.integers(1, gx), st.integers(1, gy))
    positive = st.integers(1, 1000) | st.floats(1e-3, 1e4)
    unit = st.sampled_from([0, 1]) | st.floats(0.0, 1.0)
    direct = st.none() | st.builds(DirectLink, positive) | st.builds(DirectLink, positive, positive)
    return ScenarioConfig(
        grid_x=gx,
        grid_y=gy,
        relays=tuple(draw(st.lists(st.builds(RelaySpec, unit, st.integers(1, 4), coord), min_size=1, max_size=4))),
        ues=tuple(draw(st.lists(st.builds(UeSpec, coord), min_size=1, max_size=4))),
        bs_position=draw(coord),
        r_max=draw(positive),
        c_max=draw(positive),
        c_th=draw(st.just(0.0) | positive),
        horizon=draw(st.integers(1, 8)),
        gamma=draw(unit),
        direct_link=draw(direct),
    )


@settings(max_examples=150, deadline=None)
@given(scenarios())
def test_save_scenario_writes_the_reference_bytes(scenario):
    want = reference_to_dict(scenario)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "sc.json")
        save_scenario(scenario, path)
        with open(path, "rb") as fh:
            written = fh.read()
        again = load_scenario(path)
    assert written == (json.dumps(want, indent=2, sort_keys=True) + "\n").encode()
    blob = json.dumps(want, sort_keys=True).encode()
    assert scenario.fingerprint() == hashlib.sha256(blob).hexdigest()[:16]
    assert again == scenario
    assert again.fingerprint() == scenario.fingerprint()  # the numbers are floats either way


def test_integers_in_code_fingerprint_like_the_file():
    """Numbers given as ints are stored as floats, as a file reads them, so a
    policy solved on a scenario built in code matches its saved file."""
    scenario = ScenarioConfig(
        grid_x=1, grid_y=1, relays=(RelaySpec(0, 1, (1, 1)),), ues=(UeSpec((1, 1)),),
        bs_position=(1, 1), r_max=1, c_max=1, c_th=0, horizon=1, gamma=0,
        direct_link=DirectLink(3, 2),
    )
    numbers = (scenario.r_max, scenario.c_max, scenario.c_th, scenario.gamma,
               scenario.relays[0].eps_fix, *dataclasses.astuple(scenario.direct_link))
    assert all(type(x) is float for x in numbers)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "sc.json")
        save_scenario(scenario, path)
        assert load_scenario(path).fingerprint() == scenario.fingerprint()
    assert dataclasses.replace(scenario, direct_link=None).fingerprint() == "8aca60cd45cf9e7b"


def test_layout_names_every_field():
    assert set(model._LAYOUT) == {ScenarioConfig, RelaySpec, UeSpec, DirectLink}
    for cls, readers in model._LAYOUT.items():
        assert set(readers) == {f.name for f in dataclasses.fields(cls)}, cls.__name__
