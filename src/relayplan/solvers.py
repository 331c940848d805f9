"""Planners for the constrained relay-selection problem.

Three solvers share one backup engine:

* exact value iteration (enumerated cross-sums, safe dominance pruning),
* CPBVI (point-based backups anchored to a finite belief set),
* GCPBVI (the action argmax replaced by ratio-greedy element addition,
  with the printed algorithm's strict ``<`` budget test; a free element is
  admitted even at a zero budget).

plus a brute-force oracle (observation-contingent plan enumeration by
multi-objective dynamic programming over forward-filtered distributions,
sharing no code with the alpha-vector machinery) and the error-bound
calculators.

Cumulative values weight the epoch-t term by ``gamma**(t-1)``; the budget
constrains the same discounted sum. Point-based backups never materialise
cross-sums: for each anchor belief the per-branch continuation choices are
optimised jointly under the budget (a Pareto merge over branches; branches
of probability 0 cannot change it and are skipped). The merge selects
exactly the element of the full cross-sum the printed per-point argmax
would pick unless an approximation fired, and the stats count each one:

* ``frontier_cap_hits``: a merged frontier longer than ``FRONTIER_CAP`` was
  thinned to evenly spaced points;
* ``element_frontier_cap_hits``: the same thinning in gcpbvi's per-element
  candidate frontiers, which steer its ratio-greedy admission;
* ``local_mode_selections``: an action with more than ``ROOT_BRANCH_CAP``
  branches chose per branch under a local budget instead.
"""

from __future__ import annotations

import itertools
import json
import math
import time
import zipfile
from dataclasses import dataclass, field

import numpy as np

from .belief import (
    BeliefSet,
    FactoredBelief,
    Observation,
    build_h_belief_set,
    density_bound,
    epsilon_belief_set,
    joint_belief,
)
from .errors import CapExceededError, SpectralError, ValidationError
from .mobility import MarkovChain, chains_for_scenario
from .model import (
    EMPTY_ACTION,
    Action,
    JointState,
    ScenarioConfig,
    all_actions,
    cost_vector,
    reward_vector,
    value_ranges,
)
from .alpha import AlphaPair, cost_tensor, reward_tensor

ORACLE_STATE_CAP = 64
ORACLE_HORIZON_CAP = 3
ORACLE_RELAY_CAP = 2
EXACT_ACTION_CAP = 64
EXACT_STATE_CAP = 4096
EXACT_CROSS_CAP = 100_000
ROOT_BRANCH_CAP = 1024
FRONTIER_CAP = 2048
POLICY_FORMAT_VERSION = 1


@dataclass
class PolicySolution:
    """Per-epoch value-function sets plus everything needed to execute them.

    ``epochs[e-1]`` holds the pairs used at decision epoch ``e`` (so index 0
    carries the full-lookahead set). Oracle solutions store an explicit
    observation-contingent plan in ``tree`` instead of alpha pairs.
    """

    method: str
    horizon: int
    gamma: float
    c_th: float
    chains: list[MarkovChain]
    scenario_fingerprint: str
    initial_state: JointState
    epochs: list[list[AlphaPair]] | None = None
    belief_set: BeliefSet | None = None
    tree: "OracleTree | None" = None
    stats: dict = field(default_factory=dict)

    def planned_value(self, fb: FactoredBelief | None = None) -> tuple[float, float]:
        """Expected cumulative discounted (reward, cost) at the initial belief."""
        if self.tree is not None:
            return self.stats["oracle_value_r"], self.stats["oracle_value_c"]
        if fb is None:
            fb = FactoredBelief.one_hot(self.initial_state, self.chains[0].size)
        pair, _ = select_pair(self, 1, fb)
        if pair is None:
            return 0.0, 0.0
        return pair.evaluate(fb)


@dataclass
class OracleTree:
    action: Action
    children: dict[Observation, "OracleTree"] = field(default_factory=dict)


def _budget_tol(c_th: float) -> float:
    return 1e-9 * max(1.0, abs(c_th))


def select_pair(
    policy: PolicySolution, epoch: int, fb: FactoredBelief
) -> tuple[AlphaPair | None, Action]:
    """Execution rule: budget-feasible pair with the best reward at ``fb``.

    Ties break toward lower cost, then the lexicographically smallest action.
    Returns ``(None, empty action)`` when no stored pair is feasible.
    """
    pairs = policy.epochs[epoch - 1]
    tol = _budget_tol(policy.c_th)
    b = joint_belief(fb)
    best = None
    best_key = None
    for pair in pairs:
        # the arithmetic of AlphaPair.evaluate, with the joint belief built once
        r, c = float(pair.alpha_r @ b), float(pair.alpha_c @ b)
        if c > policy.c_th + tol:
            continue
        key = (-r, c, pair.action.selected)
        if best_key is None or key < best_key:
            best, best_key = pair, key
    if best is None:
        return None, EMPTY_ACTION
    return best, best.action


def _running_records(rs: np.ndarray) -> np.ndarray:
    """Mask of the entries (along axis 0) above every entry before them."""
    prev = np.empty_like(rs)
    prev[:1] = -np.inf
    prev[1:] = rs[:-1]
    return rs > np.fmax.accumulate(prev, axis=0)  # fmax: a NaN never becomes the max


def _keep_records(idx: np.ndarray, rr: np.ndarray) -> np.ndarray:
    """The running-max records ``idx`` (rewards ``rr``) that the frontier keeps.

    A point is kept when its reward beats the last kept one by more than
    1e-15, and only a record can do that. When every record beats the one
    before it by that margin, all are kept; otherwise the rule runs over the
    records alone.
    """
    if (rr[1:] > rr[:-1] + 1e-15).all():
        return idx
    keep = []
    best = -np.inf
    for i, v in zip(idx, rr):
        if v > best + 1e-15:
            keep.append(i)
            best = v
    return np.asarray(keep, dtype=int)


def _pareto_indices(r: np.ndarray, c: np.ndarray) -> np.ndarray:
    """Indices of the (max reward, min cost) Pareto frontier, cost-ascending."""
    order = np.lexsort((np.arange(len(r)), -r, c))
    rs = r[order]
    rec = _running_records(rs)
    return _keep_records(order[rec], rs[rec])


def _column_frontiers(wr: np.ndarray, wc: np.ndarray) -> list[np.ndarray]:
    """``_pareto_indices(wr[:, z], wc[:, z])`` for every column ``z``, sorted at once."""
    rows = np.broadcast_to(np.arange(len(wr))[:, None], wr.shape)
    order = np.lexsort((rows, -wr, wc), axis=0)
    rs = np.take_along_axis(wr, order, axis=0)
    rec = _running_records(rs)
    return [_keep_records(order[rec[:, z], z], rs[rec[:, z], z]) for z in range(wr.shape[1])]


@dataclass
class _Merge:
    """Outcome of ``_merge_branches``.

    ``r``/``c`` is the final frontier, or None when some branch had no
    choice within the limit; ``merged`` counts the branches before that one
    (all of them otherwise), ``skipped`` the all-zero branches among those.
    ``steps`` holds ``(branch, parents, choices)`` per merged live branch:
    frontier point ``i`` extends point ``parents[i]`` of the frontier before
    that branch with row ``choices[i]``.
    """

    r: np.ndarray | None
    c: np.ndarray | None
    merged: int
    skipped: int
    cap_hits: int = 0
    steps: list = field(default_factory=list)


def _merge_branches(r0, c0, wr, wc, limit, cap, lowest=False) -> _Merge:
    """Pareto frontier of ``(r0 + sum_z wr[j_z, z], c0 + sum_z wc[j_z, z])``
    over one choice ``j_z`` per branch (column), merged branch by branch.

    After each branch only points with cost within ``limit`` survive, and a
    frontier longer than ``cap`` is thinned to ``cap`` evenly spaced points
    (the ``cap`` cheapest with ``lowest``). A branch whose reward and cost
    columns are all zero is skipped: its own frontier is row 0, adding zero
    changes no sum, and a frontier merged again is unchanged, so it would
    pick row 0 and leave the frontier as it was.
    """
    n_branches = wr.shape[1]
    live = np.flatnonzero(wr.any(axis=0) | wc.any(axis=0))
    out = _Merge(np.array([r0]), np.array([c0]), n_branches, n_branches - len(live))
    for i, (z, cand) in enumerate(zip(live, _column_frontiers(wr[:, live], wc[:, live]))):
        rr = (out.r[:, None] + wr[cand, z][None, :]).ravel()
        cc = (out.c[:, None] + wc[cand, z][None, :]).ravel()
        ok = np.flatnonzero(cc <= limit)
        if not len(ok):
            return _Merge(None, None, int(z), int(z) - i, out.cap_hits)
        keep = ok[_pareto_indices(rr[ok], cc[ok])]
        if len(keep) > cap:
            out.cap_hits += 1
            if lowest:
                keep = keep[:cap]
            else:
                keep = keep[np.unique(np.linspace(0, len(keep) - 1, cap).round().astype(int))]
        out.r, out.c = rr[keep], cc[keep]
        out.steps.append((z, keep // len(cand), cand[keep % len(cand)]))
    return out


class _AnchorScores:
    """Belief-weighted branch contributions of one predicted stack at one anchor.

    ``scores(sel_axes)`` entry ``[j, z]`` is the term the cross-sum element
    choosing source ``j`` at observation branch ``z`` adds to the value at
    ``fb``. The unselected axes are contracted in descending order, and every
    contraction prefix is kept, so scores for different ``sel_axes`` at the
    same anchor share their leading ``tensordot`` calls. The object lives for
    one anchor belief only.
    """

    def __init__(self, g: np.ndarray, fb: FactoredBelief, counters: dict | None = None):
        self.fb = fb
        self.counters = counters
        self._contracted = {(): g.reshape((-1,) + tuple(b.shape[0] for b in fb.per_relay))}

    def _contract(self, axes: tuple[int, ...]) -> np.ndarray:
        t = self._contracted.get(axes)
        if t is None:
            ax = axes[-1]
            t = np.tensordot(self._contract(axes[:-1]), self.fb.per_relay[ax], axes=(ax + 1, 0))
            self._contracted[axes] = t
        return t

    def scores(self, sel_axes: tuple[int, ...]) -> np.ndarray:
        unselected = set(range(self.fb.n_relays)) - set(sel_axes)
        t = self._contract(tuple(sorted(unselected, reverse=True)))
        m = len(sel_axes)
        for pos, ax in enumerate(sel_axes):
            t = t * self.fb.per_relay[ax].reshape((1,) * (pos + 1) + (-1,) + (1,) * (m - pos - 1))
        out = t.reshape(len(t), -1)
        if self.counters is not None:
            self.counters["pair_evaluations"] += out.size
        return out


def _max_ratio_point(r: np.ndarray, c: np.ndarray, c_th: float) -> tuple[float, float]:
    """The frontier point with the best reward/cost ratio (zero cost ranks first)."""
    zero = 1e-12 * max(1.0, c_th)
    ratios = np.where(c > zero, r / np.maximum(c, zero), np.where(r > zero, np.inf, 0.0))
    best = int(np.lexsort((c, -r, -ratios))[0])
    return float(r[best]), float(c[best])


class _Engine:
    """Shared per-solve state: tensors, branch scoring, selection, assembly."""

    def __init__(
        self,
        scenario: ScenarioConfig,
        chains: list[MarkovChain],
        c_th: float | None = None,
        frontier_cap: int = FRONTIER_CAP,
    ):
        self.scenario = scenario
        self.chains = chains
        self.gamma = scenario.gamma
        self.c_th = scenario.c_th if c_th is None else c_th
        self.k = scenario.n_relays
        self.n = scenario.n_regions
        self.shape = (self.n,) * self.k
        self.flat = self.n**self.k
        self.frontier_cap = frontier_cap
        self.counters = {
            "predictions": 0,
            "pair_evaluations": 0,
            "branch_merges": 0,
            "frontier_cap_hits": 0,
            "element_frontier_cap_hits": 0,
            "local_mode_selections": 0,
            "zero_branches_skipped": 0,
        }
        self._reward_flat: dict[tuple, np.ndarray] = {}
        self._cost_flat: dict[tuple, np.ndarray] = {}
        self.r_vecs = {i: reward_vector(scenario, i) for i in range(1, self.k + 1)}
        self.c_vecs = {i: cost_vector(scenario, i) for i in range(1, self.k + 1)}

    def reward_flat(self, action: Action) -> np.ndarray:
        key = action.selected
        if key not in self._reward_flat:
            self._reward_flat[key] = reward_tensor(self.scenario, action)
        return self._reward_flat[key]

    def cost_flat(self, action: Action) -> np.ndarray:
        key = action.selected
        if key not in self._cost_flat:
            self._cost_flat[key] = cost_tensor(self.scenario, action)
        return self._cost_flat[key]

    def rho(self, action: Action, fb: FactoredBelief) -> tuple[float, float]:
        """Expected immediate (reward, cost) of ``action`` at ``fb``: the sum
        of the selected options' means under their own belief factors."""
        r = self.scenario.direct_reward() if 0 in action else 0.0
        c = self.scenario.direct_cost() if 0 in action else 0.0
        for i in action.relays:
            r += float(fb.per_relay[i - 1] @ self.r_vecs[i])
            c += float(fb.per_relay[i - 1] @ self.c_vecs[i])
        return r, c

    def predict(self, stack: np.ndarray) -> np.ndarray:
        """``gamma * T @ alpha`` for every row ``alpha`` of ``stack``."""
        t = stack.reshape((-1,) + self.shape)
        for axis, chain in enumerate(self.chains):
            t = np.moveaxis(
                np.tensordot(chain.matrix, np.moveaxis(t, axis + 1, 0), axes=(1, 0)),
                0,
                axis + 1,
            )
        self.counters["predictions"] += len(stack)
        return self.gamma * t.reshape(len(stack), -1)

    def predict_stack(self, pairs: list[AlphaPair]) -> tuple[np.ndarray, np.ndarray]:
        """``predict`` of both vectors of every pair, stacked in one call."""
        flat = self.predict(np.array([p.alpha_r for p in pairs] + [p.alpha_c for p in pairs]))
        return flat[: len(pairs)], flat[len(pairs) :]

    def anchor(self, fb: FactoredBelief, gr: np.ndarray | None, gc: np.ndarray | None):
        """The reward and cost scorers of one anchor belief (None with no future)."""
        if gr is None:
            return None
        return _AnchorScores(gr, fb, self.counters), _AnchorScores(gc, fb, self.counters)

    def branch_probs(self, fb: FactoredBelief, sel_axes: tuple[int, ...]) -> np.ndarray:
        p = np.ones(1)
        for ax in sel_axes:
            p = np.kron(p, fb.per_relay[ax])
        return p

    def select(self, action: Action, fb: FactoredBelief, anchor):
        """Best budget-feasible continuation assignment for ``action`` at ``fb``.

        ``anchor`` is ``self.anchor(fb, gr, gc)``. Returns ``(r, c, sigma)`` or
        None when the action cannot stay within the budget at this belief;
        ``sigma`` is None when there is no future.
        """
        rho_r, rho_c = self.rho(action, fb)
        tol = _budget_tol(self.c_th)
        if anchor is None:
            if rho_c > self.c_th + tol:
                return None
            return rho_r, rho_c, None
        sel_axes = tuple(i - 1 for i in action.relays)
        wr, wc = (scorer.scores(sel_axes) for scorer in anchor)
        if wr.shape[1] <= ROOT_BRANCH_CAP:
            return self._root_select(rho_r, rho_c, wr, wc)
        self.counters["local_mode_selections"] += 1
        if rho_c > self.c_th + tol:
            return None
        sigma = self._local_select(wr, wc[None], self.branch_probs(fb, sel_axes))
        cols = np.arange(wr.shape[1])
        r = rho_r + float(wr[sigma, cols].sum())
        c = rho_c + float(wc[sigma, cols].sum())
        if c > self.c_th + tol:
            return None
        return r, c, sigma

    def _root_select(self, rho_r, rho_c, wr, wc):
        limit = self.c_th + _budget_tol(self.c_th)
        if rho_c > limit:
            return None
        merge = _merge_branches(rho_r, rho_c, wr, wc, limit, self.frontier_cap)
        self.counters["branch_merges"] += merge.merged
        self.counters["zero_branches_skipped"] += merge.skipped
        self.counters["frontier_cap_hits"] += merge.cap_hits
        if merge.r is None:
            return None
        best = int(np.lexsort((merge.c, -merge.r))[0])
        sigma = np.zeros(wr.shape[1], dtype=int)  # a skipped branch keeps row 0
        idx = best
        for z, parents, choices in reversed(merge.steps):
            sigma[z] = choices[idx]
            idx = int(parents[idx])
        return float(merge.r[best]), float(merge.c[best]), sigma

    def _local_select(self, wr: np.ndarray, wcs: np.ndarray, p: np.ndarray) -> np.ndarray:
        """Per-branch choices under a local budget: at each branch ``z`` the
        best reward among the sources whose cost stays within ``gamma * p[z]
        * c_th`` for every budget (rows of the (N, P, Z) stack ``wcs``), or
        the lowest summed cost when none does."""
        budget = self.gamma * p * self.c_th + _budget_tol(self.c_th)
        feasible = (wcs <= budget[None, None, :]).all(axis=0)
        sigma = np.argmax(np.where(feasible, wr, -np.inf), axis=0)
        orphan = ~feasible.any(axis=0)
        if orphan.any():
            sigma[orphan] = np.argmin(wcs.sum(axis=0)[:, orphan], axis=0)
        return sigma

    def branch_index(self, sigma: np.ndarray, sel_axes: tuple[int, ...]) -> tuple:
        """Index of a predicted stack ``g`` such that ``g[index]`` takes, at each
        joint state, the row the per-branch choices ``sigma`` pick there."""
        dims = tuple(self.n if ax in sel_axes else 1 for ax in range(self.k))
        return np.broadcast_to(sigma.reshape(dims), self.shape).reshape(-1), np.arange(self.flat)

    def assemble(
        self,
        action: Action,
        sigma: np.ndarray | None,
        gr: np.ndarray | None,
        gc: np.ndarray | None,
        epoch: int,
    ) -> AlphaPair:
        """Materialise the joint-space pair for an action and branch choices."""
        alpha_r = self.reward_flat(action).copy()
        alpha_c = self.cost_flat(action).copy()
        if sigma is not None:
            at = self.branch_index(sigma, tuple(i - 1 for i in action.relays))
            alpha_r += gr[at]
            alpha_c += gc[at]
        return AlphaPair(alpha_r=alpha_r, alpha_c=alpha_c, action=action, epoch=epoch)

    def zero_pair(self, epoch: int) -> AlphaPair:
        return AlphaPair(
            alpha_r=np.zeros(self.flat),
            alpha_c=np.zeros(self.flat),
            action=EMPTY_ACTION,
            epoch=epoch,
        )


# --- point-based backups ---------------------------------------------------


def cpbvi_backup(
    v_next: list[AlphaPair],
    belief_set: BeliefSet,
    scenario: ScenarioConfig,
    chains: list[MarkovChain],
    epoch: int = 0,
    engine: _Engine | None = None,
) -> list[AlphaPair]:
    """One point-based iteration: per anchor belief, the best feasible action
    with its budget-coupled continuation choices. Always returns one pair per
    anchor (the zero pair of the empty action when nothing is feasible)."""
    engine = engine or _Engine(scenario, chains)
    gr = gc = None
    if v_next:
        gr, gc = engine.predict_stack(v_next)
    actions = all_actions(engine.k)
    if len(actions) > EXACT_ACTION_CAP:
        raise CapExceededError(
            f"{len(actions)} candidate actions; use the greedy solver for K > 5"
        )
    out = []
    for fb in belief_set.points:
        anchor = engine.anchor(fb, gr, gc)
        best = None
        best_key = None
        for action in actions:
            picked = engine.select(action, fb, anchor)
            if picked is None:
                continue
            r, c, sigma = picked
            key = (-r, c, action.selected)
            if best_key is None or key < best_key:
                best_key = key
                best = (action, sigma)
        del anchor  # the stored pair is allocated after the contractions are freed
        if best is None:
            out.append(engine.zero_pair(epoch))
        else:
            out.append(engine.assemble(best[0], best[1], gr, gc, epoch))
    return out


def _element_candidates(engine: _Engine, fb: FactoredBelief, anchor):
    """Best ratio-scored candidate per selectable element at ``fb``.

    Element candidates come from the element's own observation-branch
    frontier; zero-cost positive-reward candidates rank ahead of every
    finite ratio, and zero-cost zero-reward elements are dropped as no-ops.
    """
    ranked = []
    tol = 1e-12 * max(1.0, engine.c_th)
    for e in range(engine.k + 1):
        action = Action((e,))
        picked = _element_frontier_best(engine, action, fb, anchor)
        if picked is None:
            continue
        r, c = picked
        if c <= tol:
            if r <= tol:
                continue
            ranked.append(((0, -r, 0.0, e), e, r, c))
        else:
            ranked.append(((1, -r / c, -r, e), e, r, c))
    ranked.sort(key=lambda item: item[0])
    return [(e, r, c) for _, e, r, c in ranked]


def _element_frontier_best(engine, action, fb, anchor):
    """Max-ratio point of one element's own branch frontier at ``fb``."""
    rho_r, rho_c = engine.rho(action, fb)
    limit = engine.c_th + _budget_tol(engine.c_th)
    if rho_c > limit:
        return None
    if anchor is None:
        return rho_r, rho_c
    sel_axes = tuple(i - 1 for i in action.relays)
    wr, wc = (scorer.scores(sel_axes) for scorer in anchor)
    merge = _merge_branches(rho_r, rho_c, wr, wc, limit, engine.frontier_cap)
    engine.counters["zero_branches_skipped"] += merge.skipped
    engine.counters["element_frontier_cap_hits"] += merge.cap_hits
    if merge.r is None:
        return None
    return _max_ratio_point(merge.r, merge.c, engine.c_th)


def gcpbvi_backup(
    v_next: list[AlphaPair],
    belief_set: BeliefSet,
    scenario: ScenarioConfig,
    chains: list[MarkovChain],
    epoch: int = 0,
    engine: _Engine | None = None,
) -> list[AlphaPair]:
    """Greedy point-based iteration: per anchor belief, pick the action by
    ratio-greedy element addition (never enumerating the 2^K action set),
    then materialise that action's pair with budget-coupled continuations.
    """
    engine = engine or _Engine(scenario, chains)
    gr = gc = None
    if v_next:
        gr, gc = engine.predict_stack(v_next)
    free = 1e-12 * max(1.0, engine.c_th)  # a free element enters even at a zero budget
    out = []
    for fb in belief_set.points:
        anchor = engine.anchor(fb, gr, gc)
        candidates = _element_candidates(engine, fb, anchor)
        v_sum = 0.0
        admitted: list[int] = []
        for e, r, c in candidates:
            if v_sum + c < engine.c_th or c <= free:
                admitted.append(e)
                v_sum += c
        picked = None
        while admitted and picked is None:
            action = Action(tuple(sorted(admitted)))
            picked = engine.select(action, fb, anchor)
            if picked is None:
                admitted.pop()
        del anchor  # the stored pair is allocated after the contractions are freed
        if picked is None:
            out.append(engine.zero_pair(epoch))
        else:
            out.append(engine.assemble(action, picked[2], gr, gc, epoch))
    return out


# --- exact solver ------------------------------------------------------------


def exact_backup(
    v_t: list[AlphaPair],
    scenario: ScenarioConfig,
    chains: list[MarkovChain],
    epoch: int = 0,
    engine: _Engine | None = None,
) -> list[AlphaPair]:
    """One enumerated dynamic-programming update over all actions.

    Pruning: exact duplicates and pointwise-dominated pairs are removed per
    observation branch and again after the action union; this never changes
    the constrained maximum at any belief.
    """
    engine = engine or _Engine(scenario, chains)
    if engine.flat > EXACT_STATE_CAP:
        raise CapExceededError(
            f"joint space {engine.flat} exceeds the exact-solver cap {EXACT_STATE_CAP}; "
            "use cpbvi or gcpbvi"
        )
    actions = all_actions(engine.k)
    if len(actions) > EXACT_ACTION_CAP:
        raise CapExceededError("too many actions for the exact solver; use gcpbvi")

    gr = gc = None
    if v_t:
        gr, gc = engine.predict_stack(v_t)

    out: list[AlphaPair] = []
    for action in actions:
        if gr is None:
            out.append(
                AlphaPair(
                    alpha_r=engine.reward_flat(action).copy(),
                    alpha_c=engine.cost_flat(action).copy(),
                    action=action,
                    epoch=epoch,
                    children={},
                )
            )
            continue
        sel_axes = tuple(i - 1 for i in action.relays)
        branch_states = list(itertools.product(range(engine.n), repeat=len(sel_axes)))
        branch_choices: list[np.ndarray] = []
        tensor_shape = (-1,) + engine.shape
        gr_t = gr.reshape(tensor_shape)
        gc_t = gc.reshape(tensor_shape)
        for combo in branch_states:
            index = (slice(None),) + tuple(
                combo[sel_axes.index(ax)] if ax in sel_axes else slice(None)
                for ax in range(engine.k)
            )
            slice_r = gr_t[index].reshape(len(v_t), -1)
            slice_c = gc_t[index].reshape(len(v_t), -1)
            branch_choices.append(_pointwise_undominated(slice_r, slice_c))
        n_combos = math.prod(len(c) for c in branch_choices)
        if n_combos > EXACT_CROSS_CAP:
            raise CapExceededError(
                f"action {action.selected} cross-sum would produce {n_combos} pairs "
                f"(cap {EXACT_CROSS_CAP}); reduce the horizon or use a point-based solver"
            )
        for sigma in itertools.product(*branch_choices):
            at = engine.branch_index(np.asarray(sigma, dtype=int), sel_axes)
            children = {
                _branch_obs(action, combo, engine.k): v_t[j]
                for combo, j in zip(branch_states, sigma)
            }
            out.append(
                AlphaPair(
                    alpha_r=engine.reward_flat(action) + gr[at],
                    alpha_c=engine.cost_flat(action) + gc[at],
                    action=action,
                    epoch=epoch,
                    children=children,
                )
            )

    out = _dedup_pairs(out)
    keep = _pointwise_undominated(
        np.array([p.alpha_r for p in out]), np.array([p.alpha_c for p in out])
    )
    return [out[i] for i in keep]


def _branch_obs(action: Action, regions, k: int) -> Observation:
    """The observation of ``action`` when its relays, in order, report ``regions``."""
    z: list[int | None] = [None] * k
    for rel, region in zip(action.relays, regions):
        z[rel - 1] = int(region)
    return tuple(z)


def _dedup_pairs(pairs: list[AlphaPair]) -> list[AlphaPair]:
    seen = set()
    out = []
    for pair in sorted(pairs, key=lambda p: p.action.selected):
        key = pair.key()
        if key[1:] not in seen:
            seen.add(key[1:])
            out.append(pair)
    return out


def _pointwise_undominated(r: np.ndarray, c: np.ndarray) -> np.ndarray:
    """Indices not pointwise-dominated by any other row pair.

    Row j dominates row i when ``r[j] >= r[i]`` and ``c[j] <= c[i]``
    everywhere; among identical rows the lowest index survives.
    """
    m = len(r)
    if m <= 1:
        return np.arange(m)
    dominated = np.zeros(m, dtype=bool)
    chunk = 32  # rows per block: the comparisons hold chunk * m * flat booleans
    for start in range(0, m, chunk):
        stop = min(start + chunk, m)
        ge = (r[None, :, :] >= r[start:stop, None, :]).all(-1)
        le = (c[None, :, :] <= c[start:stop, None, :]).all(-1)
        dom = ge & le
        block = np.arange(start, stop)
        equal = (r[None, :, :] == r[start:stop, None, :]).all(-1) & (
            c[None, :, :] == c[start:stop, None, :]
        ).all(-1)
        strict = dom & ~equal
        earlier_equal = equal & (np.arange(m)[None, :] < block[:, None])
        dominated[block] = (strict | earlier_equal).any(axis=1)
    return np.flatnonzero(~dominated)


# --- top-level solves --------------------------------------------------------


def _resolve_belief_set(scenario, chains, belief_set, eps, h, cap) -> BeliefSet:
    if belief_set is not None:
        return belief_set
    s0 = scenario.initial_states
    if eps is not None:
        return epsilon_belief_set(s0, eps, scenario, chains, cap=cap)
    return build_h_belief_set(s0, h if h is not None else scenario.horizon, chains, cap=cap)


def _finish_stats(engine: _Engine, stats: dict, started: float) -> dict:
    stats.update(engine.counters)
    stats["wall_time_s"] = round(time.perf_counter() - started, 6)
    return stats


def solve_exact(
    scenario: ScenarioConfig,
    chains: list[MarkovChain] | None = None,
) -> PolicySolution:
    started = time.perf_counter()
    chains = chains if chains is not None else chains_for_scenario(scenario)
    horizon = scenario.horizon
    engine = _Engine(scenario, chains)
    epochs: list[list[AlphaPair] | None] = [None] * horizon
    v: list[AlphaPair] = []
    for tau in range(1, horizon + 1):
        v = exact_backup(v, scenario, chains, epoch=horizon - tau + 1, engine=engine)
        epochs[horizon - tau] = v
    stats = {"pairs_per_epoch": [len(e) for e in epochs]}
    return PolicySolution(
        method="exact",
        horizon=horizon,
        gamma=engine.gamma,
        c_th=engine.c_th,
        chains=chains,
        scenario_fingerprint=scenario.fingerprint(),
        initial_state=scenario.initial_states,
        epochs=epochs,
        stats=_finish_stats(engine, stats, started),
    )


def _solve_point_based(
    method: str,
    scenario: ScenarioConfig,
    chains: list[MarkovChain] | None,
    belief_set: BeliefSet | None,
    eps: float | None,
    h: int | None,
    cap: int,
) -> PolicySolution:
    started = time.perf_counter()
    chains = chains if chains is not None else chains_for_scenario(scenario)
    belief_set = _resolve_belief_set(scenario, chains, belief_set, eps, h, cap)
    engine = _Engine(scenario, chains)
    backup = cpbvi_backup if method == "cpbvi" else gcpbvi_backup
    horizon = scenario.horizon
    epochs: list[list[AlphaPair] | None] = [None] * horizon
    v: list[AlphaPair] = []
    for tau in range(1, horizon + 1):
        v = backup(v, belief_set, scenario, chains, epoch=horizon - tau + 1, engine=engine)
        epochs[horizon - tau] = v

    stats = {"belief_points": len(belief_set), "belief_h": belief_set.h}
    try:
        bound = density_bound(chains, belief_set.h)
        r_range, c_range = value_ranges(scenario)
        eta_r, eta_c = pbvi_error_bound(bound, scenario.gamma, horizon, r_range, c_range)
        stats.update(density_bound=bound, eta_r_bound=eta_r, eta_c_bound=eta_c)
    except SpectralError:
        # immobile or otherwise non-ergodic chains have no mixing guarantee
        stats.update(density_bound=None, eta_r_bound=None, eta_c_bound=None)
    return PolicySolution(
        method=method,
        horizon=horizon,
        gamma=scenario.gamma,
        c_th=scenario.c_th,
        chains=chains,
        scenario_fingerprint=scenario.fingerprint(),
        initial_state=scenario.initial_states,
        epochs=epochs,
        belief_set=belief_set,
        stats=_finish_stats(engine, stats, started),
    )


def solve_cpbvi(
    scenario: ScenarioConfig,
    chains: list[MarkovChain] | None = None,
    belief_set: BeliefSet | None = None,
    eps: float | None = None,
    h: int | None = None,
    cap: int = 5000,
) -> PolicySolution:
    return _solve_point_based("cpbvi", scenario, chains, belief_set, eps, h, cap)


def solve_gcpbvi(
    scenario: ScenarioConfig,
    chains: list[MarkovChain] | None = None,
    belief_set: BeliefSet | None = None,
    eps: float | None = None,
    h: int | None = None,
    cap: int = 5000,
) -> PolicySolution:
    return _solve_point_based("gcpbvi", scenario, chains, belief_set, eps, h, cap)


def pbvi_error_bound(
    eps_b: float, gamma: float, h: int, r_range: float, c_range: float
) -> tuple[float, float]:
    """Worst-case point-based value error for a belief set of density eps_b.

    Undiscounted problems use the ``h(h+1)/2`` form; discounted ones divide
    by ``(1-gamma)^2``.
    """
    if eps_b < 0:
        raise ValidationError(f"eps_b must be >= 0, got {eps_b}")
    if gamma == 1.0:
        factor = h * (h + 1) / 2.0
    else:
        factor = 1.0 / (1.0 - gamma) ** 2
    return factor * r_range * eps_b, factor * c_range * eps_b


# --- brute-force oracle -------------------------------------------------------


def brute_force_oracle(
    scenario: ScenarioConfig,
    chains: list[MarkovChain] | None = None,
    horizon: int | None = None,
) -> PolicySolution:
    """Exact constrained optimum over deterministic observation-contingent
    plans, by multi-objective DP on forward-filtered state distributions.

    Kept independent of the alpha-vector machinery on purpose: it filters
    distributions forward, enumerates per-branch Pareto sets of achievable
    (reward, cost) outcomes, and composes them bottom-up.
    """
    started = time.perf_counter()
    chains = chains if chains is not None else chains_for_scenario(scenario)
    horizon = horizon or scenario.horizon
    k = scenario.n_relays
    n = scenario.n_regions
    flat = n**k
    if flat > ORACLE_STATE_CAP or horizon > ORACLE_HORIZON_CAP or k > ORACLE_RELAY_CAP:
        raise CapExceededError(
            f"oracle caps: |S|^K <= {ORACLE_STATE_CAP}, T <= {ORACLE_HORIZON_CAP}, "
            f"K <= {ORACLE_RELAY_CAP} (got {flat}, {horizon}, {k})"
        )

    t_joint = np.ones((1, 1))
    for chain in chains:
        t_joint = np.kron(t_joint, chain.matrix)
    actions = all_actions(k)
    r_flat = {a.selected: reward_tensor(scenario, a) for a in actions}
    c_flat = {a.selected: cost_tensor(scenario, a) for a in actions}
    gamma = scenario.gamma
    c_th = scenario.c_th
    tol = _budget_tol(c_th)
    shape = (n,) * k

    memo: dict[tuple[int, bytes], list] = {}
    frontier_cap = 200_000

    def plans(epoch: int, dist: np.ndarray) -> list:
        """Pareto set of (reward, cost, plan) achievable from this context.

        The budget binds the root expectation only, so subtree sets are
        pruned purely by Pareto dominance: a subtree whose local cost
        exceeds the threshold can still be admissible once scaled by its
        reach probability and discount.
        """
        if epoch > horizon:
            return [(0.0, 0.0, None)]
        key = (epoch, np.round(dist, 12).tobytes())
        if key in memo:
            return memo[key]
        pool: list = []
        for action in actions:
            r0 = float(r_flat[action.selected] @ dist)
            c0 = float(c_flat[action.selected] @ dist)
            combos = [(r0, c0, {})]
            dist_t = dist.reshape(shape)
            sel_axes = tuple(i - 1 for i in action.relays)
            for combo in itertools.product(*(range(n) for _ in sel_axes)):
                index = tuple(
                    combo[sel_axes.index(ax)] if ax in sel_axes else slice(None)
                    for ax in range(k)
                )
                masked = np.zeros(shape)
                masked[index] = dist_t[index]
                p_z = float(masked.sum())
                if p_z <= 0.0:
                    continue
                nxt = (masked.reshape(-1) / p_z) @ t_joint
                obs = _branch_obs(action, combo, k)
                children = plans(epoch + 1, nxt)
                merged = []
                for r_acc, c_acc, plan_acc in combos:
                    for er, ec, child in children:
                        branch_plans = dict(plan_acc)
                        branch_plans[obs] = child
                        merged.append(
                            (r_acc + gamma * p_z * er, c_acc + gamma * p_z * ec, branch_plans)
                        )
                combos = _pareto_plans(merged)
                if len(combos) > frontier_cap:
                    raise CapExceededError(
                        "oracle Pareto frontier exceeded "
                        f"{frontier_cap} plans; shrink the instance"
                    )
            for r_acc, c_acc, plan_acc in combos:
                pool.append((r_acc, c_acc, OracleTree(action=action, children={
                    z: sub for z, sub in plan_acc.items() if sub is not None
                })))
        result = _pareto_plans(pool)
        memo[key] = result
        return result

    dist0 = np.zeros(flat)
    dist0[int(np.ravel_multi_index(scenario.initial_states, shape))] = 1.0
    frontier = plans(1, dist0)
    feasible = [(r, c, plan) for r, c, plan in frontier if c <= c_th + tol]
    if not feasible:
        best = (0.0, 0.0, OracleTree(action=EMPTY_ACTION))
    else:
        best = max(feasible, key=lambda item: (item[0], -item[1]))
    stats = {
        "oracle_value_r": best[0],
        "oracle_value_c": best[1],
        "contexts": len(memo),
        "wall_time_s": round(time.perf_counter() - started, 6),
    }
    return PolicySolution(
        method="oracle",
        horizon=horizon,
        gamma=gamma,
        c_th=c_th,
        chains=chains,
        scenario_fingerprint=scenario.fingerprint(),
        initial_state=scenario.initial_states,
        tree=best[2],
        stats=stats,
    )


def _pareto_plans(items: list) -> list:
    if not items:
        return []
    items = sorted(items, key=lambda it: (it[1], -it[0]))
    out = []
    best = -np.inf
    for r, c, plan in items:
        if r > best + 1e-15:
            out.append((r, c, plan))
            best = r
    return out


# --- persistence --------------------------------------------------------------


def _obs_key(z: Observation) -> str:
    return ",".join("-" if v is None else str(v) for v in z)


def _obs_from_key(key: str) -> Observation:
    if key == "":
        return ()
    return tuple(None if part == "-" else int(part) for part in key.split(","))


def _tree_to_dict(tree: OracleTree) -> dict:
    return {
        "action": list(tree.action.selected),
        "children": {_obs_key(z): _tree_to_dict(sub) for z, sub in tree.children.items()},
    }


def _tree_from_dict(data: dict) -> OracleTree:
    return OracleTree(
        action=Action(tuple(data["action"])),
        children={
            _obs_from_key(key): _tree_from_dict(sub)
            for key, sub in data.get("children", {}).items()
        },
    )


def _plain(value):
    if isinstance(value, dict):
        return {k: _plain(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_plain(v) for v in value]
    if isinstance(value, (np.integer,)):
        return int(value)
    if isinstance(value, (np.floating,)):
        return float(value)
    return value


def save_policy(policy: PolicySolution, path) -> None:
    """Write ``policy`` to exactly ``path`` as a version-1 policy archive.

    The archive is the uncompressed ``np.savez`` layout: ``chains`` (K, n, n);
    ``alpha_r_<e>`` and ``alpha_c_<e>`` (pairs, n^K) for every epoch ``e``;
    ``belief_points`` (B, K, n); and ``meta``, a JSON string with the scalars,
    the per-epoch actions, the belief-set depth and source, the stats and the
    oracle tree. Member timestamps are fixed, so equal policies give equal
    bytes.
    """
    chains = np.stack([chain.matrix for chain in policy.chains])
    flat = chains.shape[1] ** chains.shape[0]
    arrays = {"chains": chains}
    meta = {
        "format_version": POLICY_FORMAT_VERSION,
        "method": policy.method,
        "horizon": policy.horizon,
        "gamma": policy.gamma,
        "c_th": policy.c_th,
        "scenario_fingerprint": policy.scenario_fingerprint,
        "initial_state": list(policy.initial_state),
        "epoch_actions": None,
        "belief_set": None,
        "stats": policy.stats,
        "tree": _tree_to_dict(policy.tree) if policy.tree is not None else None,
    }
    if policy.epochs is not None:
        meta["epoch_actions"] = [
            [list(pair.action.selected) for pair in pairs] for pairs in policy.epochs
        ]
        for e, pairs in enumerate(policy.epochs, start=1):
            arrays[f"alpha_r_{e}"] = np.array([p.alpha_r for p in pairs]).reshape(len(pairs), flat)
            arrays[f"alpha_c_{e}"] = np.array([p.alpha_c for p in pairs]).reshape(len(pairs), flat)
    if policy.belief_set is not None:
        meta["belief_set"] = {
            "h": policy.belief_set.h,
            "source_state": list(policy.belief_set.source_state),
        }
        arrays["belief_points"] = np.array(
            [np.stack(fb.per_relay) for fb in policy.belief_set.points]
        )
    arrays["meta"] = np.array(json.dumps(_plain(meta)))
    with open(path, "wb") as fh, zipfile.ZipFile(fh, "w", zipfile.ZIP_STORED) as archive:
        for name, value in arrays.items():
            info = zipfile.ZipInfo(f"{name}.npy", date_time=(1980, 1, 1, 0, 0, 0))
            with archive.open(info, "w", force_zip64=True) as member:
                np.lib.format.write_array(member, value, allow_pickle=False)


def load_policy(path) -> PolicySolution:
    """Read a policy archive written by :func:`save_policy`.

    Every chain, pair and belief goes through its validating constructor.
    A file that is not a version-1 policy archive (an old JSON policy, a
    truncated or foreign file, a missing or unknown version, a mis-shaped
    array) raises ``ValidationError``.
    """
    with open(path, "rb") as fh:
        try:
            return _read_policy(fh)
        except (
            ValidationError, KeyError, TypeError, ValueError, EOFError, zipfile.BadZipFile
        ) as exc:
            raise ValidationError(
                f"{path} is not a usable relayplan policy file: {exc}; "
                "re-run `relayplan solve` to write it again"
            ) from exc


def _read_policy(fh) -> PolicySolution:
    if fh.read(4) != b"PK\x03\x04":
        raise ValidationError("not a zip archive (JSON policies are no longer read)")
    fh.seek(0)
    with np.load(fh, allow_pickle=False) as archive:
        if "meta" not in archive.files:
            raise ValidationError("zip archive without policy metadata")
        meta = json.loads(str(archive["meta"][()]))
        if not isinstance(meta, dict):
            raise ValidationError("policy metadata is not a JSON object")
        version = meta.get("format_version")
        if version != POLICY_FORMAT_VERSION:
            raise ValidationError(
                f"policy format version {version!r}, expected {POLICY_FORMAT_VERSION}"
            )
        stacked = archive["chains"]
        if stacked.ndim != 3 or stacked.shape[0] < 1 or stacked.shape[1] != stacked.shape[2]:
            raise ValidationError(f"chains have shape {stacked.shape}, expected (K, n, n)")
        k, n = stacked.shape[:2]
        chains = [MarkovChain(m) for m in stacked]
        initial_state = tuple(int(s) for s in meta["initial_state"])
        if len(initial_state) != k:
            raise ValidationError(f"initial state {initial_state} does not have {k} relays")

        epochs = None
        if meta["epoch_actions"] is not None:
            epochs = []
            for e, actions in enumerate(meta["epoch_actions"], start=1):
                stacks = [archive[f"alpha_r_{e}"], archive[f"alpha_c_{e}"]]
                for stack in stacks:
                    if stack.shape != (len(actions), n**k):
                        raise ValidationError(
                            f"epoch {e} stack has shape {stack.shape}, "
                            f"expected ({len(actions)}, {n**k})"
                        )
                epochs.append([
                    AlphaPair(alpha_r=r, alpha_c=c, action=Action(tuple(a)), epoch=e)
                    for r, c, a in zip(*stacks, actions)
                ])
            if len(epochs) != meta["horizon"]:
                raise ValidationError(
                    f"{len(epochs)} epochs stored for horizon {meta['horizon']}"
                )

        belief_set = None
        if meta["belief_set"] is not None:
            points = archive["belief_points"]
            if points.ndim != 3 or points.shape[1:] != (k, n):
                raise ValidationError(
                    f"belief points have shape {points.shape}, expected (B, {k}, {n})"
                )
            belief_set = BeliefSet(
                points=[FactoredBelief(tuple(point)) for point in points],
                h=meta["belief_set"]["h"],
                source_state=tuple(meta["belief_set"]["source_state"]),
            )

    return PolicySolution(
        method=meta["method"],
        horizon=meta["horizon"],
        gamma=meta["gamma"],
        c_th=meta["c_th"],
        chains=chains,
        scenario_fingerprint=meta["scenario_fingerprint"],
        initial_state=initial_state,
        epochs=epochs,
        belief_set=belief_set,
        tree=_tree_from_dict(meta["tree"]) if meta["tree"] is not None else None,
        stats=meta["stats"],
    )
