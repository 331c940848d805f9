"""The package surface: no dead top-level code, and every export resolves."""

import ast
from collections import Counter

import relayplan
from conftest import REPO_ROOT

PACKAGE = REPO_ROOT / "src" / "relayplan"

# Validation entry points: the tests and the acceptance gate call them, the
# solvers and the simulator do not. ``run_episode`` is one seeded episode with
# its epoch records, the batch of one seed that the simulator plays many of.
ENTRY_POINTS = {
    "run_episode",
    "exact_policy_value",
    "discrete_derivative",
    "empirical_density",
    "distance_function",
    "belief_monotonicity_counterexamples",
    "total_reward",
    "total_cost",
}

# Result fields the simulator fills for its callers, as ``run_episode``'s
# trace and ``SimulationMetrics``: the package writes them and reads none.
RESULT_FIELDS = {
    "EpochRecord.observations",
    "EpisodeTrace.cum_reward",
    "EpisodeTrace.cum_cost",
    "EpisodeTrace.cum_ee",
    "SimulationMetrics.stderr_cost",
}


def _modules() -> dict[str, ast.Module]:
    return {path.name: ast.parse(path.read_text()) for path in sorted(PACKAGE.glob("*.py"))}


def _used_names(tree: ast.AST, skip: set[ast.AST]) -> set[str]:
    """Names loaded or read as attributes anywhere in ``tree`` outside ``skip``."""
    out = set()
    for node in ast.walk(tree):
        if node in skip:
            continue
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
    return out


def _name_counts(tree: ast.AST) -> Counter:
    """How many times each name is loaded or read as an attribute in ``tree``."""
    return Counter(
        node.id if isinstance(node, ast.Name) else node.attr
        for node in ast.walk(tree)
        if isinstance(node, (ast.Name, ast.Attribute))
    )


def _defined_names(node: ast.stmt) -> list[str]:
    """The names a top-level statement defines: a function, a class, or the
    plain names an assignment binds (constants, tables, type aliases)."""
    if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
        return [node.name]
    if isinstance(node, ast.Assign):
        targets = node.targets
    elif isinstance(node, ast.AnnAssign):
        targets = [node.target]
    else:
        return []
    return [t.id for target in targets for t in ast.walk(target) if isinstance(t, ast.Name)]


def _members(node: ast.stmt) -> list[tuple[str, ast.stmt]]:
    """The non-dunder methods and annotated (dataclass) fields of a class
    statement, each with the statement that defines it."""
    if not isinstance(node, ast.ClassDef):
        return []
    out = []
    for stmt in node.body:
        if isinstance(stmt, ast.FunctionDef):
            out.append((stmt.name, stmt))
        elif isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
            out.append((stmt.target.id, stmt))
    return [(member, stmt) for member, stmt in out if not member.startswith("__")]


def test_every_top_level_definition_is_used():
    """Every top-level definition, class method and dataclass field is read
    somewhere in the package outside its own definition: the package's reads
    of its name outnumber those inside the definition."""
    modules = _modules()
    del modules["__init__.py"]
    reads = sum(map(_name_counts, modules.values()), Counter())
    unused = []
    for name, tree in modules.items():
        for node in tree.body:
            defined = [(d, node, d in ENTRY_POINTS) for d in _defined_names(node)]
            defined += [
                (member, stmt, f"{node.name}.{member}" in RESULT_FIELDS)
                for member, stmt in _members(node)
            ]
            for what, own, entry_point in defined:
                if reads[what] == _name_counts(own)[what] and not entry_point:
                    unused.append(f"{name}:{what}")
    assert unused == []


# Names a module imports without reading them, each with its reason.
UNREAD_IMPORTS = {
    # perfbench/tracing.py wraps the name ``relayplan.sim.select_pair`` binds
    "sim.py:select_pair",
}


def test_every_import_is_read():
    """Every name a package module imports is read in that module; the
    package's ``__init__`` re-exports its names and is left out."""
    modules = _modules()
    del modules["__init__.py"]
    unread = []
    for name, tree in modules.items():
        imports = [node for node in tree.body if isinstance(node, (ast.Import, ast.ImportFrom))]
        used = _used_names(tree, {n for node in imports for n in ast.walk(node)})
        for node in imports:
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            for alias in node.names:
                bound = alias.asname or alias.name.split(".")[0]
                if bound not in used and f"{name}:{bound}" not in UNREAD_IMPORTS:
                    unread.append(f"{name}:{bound}")
    assert unread == []


def test_only_model_prices_an_option():
    """What an option pays is computed in ``model`` alone: the solvers, the
    oracle, the simulator and the exact evaluation read
    ``model.option_tables``."""
    pricing = {"relay_reward", "relay_cost", "direct_reward", "direct_cost"}
    callers = [
        f"{name}:{node.lineno}"
        for name, tree in _modules().items()
        if name != "model.py"
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and (getattr(node.func, "id", None) in pricing or getattr(node.func, "attr", None) in pricing)
    ]
    assert callers == []


def test_entry_points_exist():
    defined = {
        node.name
        for tree in _modules().values()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
    }
    assert ENTRY_POINTS <= defined
    members = {
        f"{node.name}.{member}"
        for tree in _modules().values()
        for node in tree.body
        for member, _ in _members(node)
    }
    assert RESULT_FIELDS <= members


def test_every_export_resolves():
    tree = _modules()["__init__.py"]
    exports = [
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    ]
    assert exports
    missing = [name for name in exports if not hasattr(relayplan, name)]
    assert missing == []
