"""Planners for the constrained relay-selection problem.

Three solvers share one backup engine (``_Engine``), which a solve builds
once:

* exact value iteration (enumerated cross-sums, safe dominance pruning),
* CPBVI and GCPBVI, one point-based backup loop (``_point_backup``)
  anchored to a finite belief set that differs only in how each anchor
  chooses: CPBVI by the exhaustive constrained argmax over every action
  (``_Engine.best_action``), GCPBVI by the paper's greedy
  (``_Engine.greedy``: elements enter by marginal gain ratio under the
  printed algorithm's strict ``<`` budget test, a free element even at a
  zero budget, and the best single element wins when it beats the greedy
  set).

The centralized multi-user solve is gcpbvi's backup over every UE's
(UE, option) elements with per-UE budgets; a single UE is N = 1. The other
solves plan one UE and refuse a scenario of several. A point-based solve
takes its anchors as a depth h and a cap; ``horizon_for_eps`` picks the
smallest h whose whole-set error bounds fit a target. Also here: a
brute-force oracle (observation-contingent plan enumeration by
multi-objective dynamic programming over forward-filtered distributions,
sharing no code with the alpha-vector machinery).

Cumulative values weight the epoch-t term by ``gamma**(t-1)``; the budget
constrains the same discounted sum. Point-based backups never materialise
cross-sums. At each anchor belief (``_Anchor``) the predicted stored vectors
are gathered once on the belief's support by one ``take`` on its flat
indices (``belief.Support``, which the execution rule's ranking reads too),
each partial contraction of them is made once and shared by the relay sets
that need it, and each relay set's continuation is computed once: its
per-branch choices are optimised jointly under the budget (a Pareto merge
over the branches of positive probability) for one UE when the set has at
most ``ROOT_BRANCH_CAP`` branches. The merge selects exactly
the element of the full cross-sum the printed per-point argmax would pick
unless an approximation fired, and the stats count each one:

* ``frontier_cap_hits``: a merged frontier longer than ``FRONTIER_CAP`` was
  thinned to evenly spaced points;
* ``local_mode_selections``: a relay set with more than ``ROOT_BRANCH_CAP``
  branches, or any relay set of a multi-user solve, chose per branch under a
  local budget instead.

The merge costs what its data holds: the leading branches whose column has
one running record (every branch when one pair is stored, found without a
sort) are folded in one sequential sum, bitwise the branch-by-branch merge
(``_Engine._root_merge``).

A candidate costs a few float operations (``_Engine.select``): the points
of a continuation are Python floats, cost-ascending for every UE, so those
within the budget are a prefix found by bisection (``_Continuation.pick``).
The chosen pair gathers its continuation from the predicted stack in one
call (``_Engine.gather``), and a backup assembles each distinct pair (an
assignment and its per-branch rows) once, for every anchor that chooses it;
the exact backup gathers each action's whole cross-sum in one, and builds a
pair only for a row its final prune keeps.
"""

from __future__ import annotations

import itertools
import json
import math
import time
import zipfile
from bisect import bisect_right
from contextlib import contextmanager, suppress
from dataclasses import dataclass, field
from operator import add, itemgetter

import numpy as np

from .belief import (
    BeliefSet,
    FactoredBelief,
    Observation,
    Support,
    build_h_belief_set,
    density_bound,
)
from .errors import CapExceededError, SpectralError, ValidationError
from .mobility import MarkovChain, chains_for_scenario
from .model import (
    EMPTY_ACTION,
    Action,
    JointState,
    ScenarioConfig,
    _as_int,
    _as_number,
    all_actions,
    option_tables,
    value_ranges,
)
from .alpha import AlphaPair, expectation, tabulate

ORACLE_STATE_CAP = 64
ORACLE_HORIZON_CAP = 3
ORACLE_RELAY_CAP = 2
EXACT_ACTION_CAP = 64
EXACT_STATE_CAP = 4096
EXACT_CROSS_CAP = 100_000
ROOT_BRANCH_CAP = 1024
FRONTIER_CAP = 2048
POLICY_FORMAT_VERSION = 2


@dataclass
class PolicySolution:
    """Per-epoch value-function sets plus everything needed to execute them.

    ``epochs[e-1]`` holds the pairs used at decision epoch ``e`` (so index 0
    carries the full-lookahead set); every pair holds the same N UEs. Oracle
    solutions store an explicit observation-contingent plan in ``tree``
    instead of alpha pairs.
    """

    method: str
    horizon: int
    gamma: float
    c_th: float
    chains: list[MarkovChain]
    scenario_fingerprint: str
    initial_state: JointState
    epochs: list[list[AlphaPair]] | None = None
    tree: "OracleTree | None" = None
    stats: dict = field(default_factory=dict)

    @property
    def n_ues(self) -> int:
        """The UEs the policy plays: 1 for an oracle tree."""
        return len(self.epochs[0][0].actions) if self.epochs and self.epochs[0] else 1

    def planned_value(self) -> tuple[float, float]:
        """Expected discounted (reward, largest per-UE cost) at the initial belief."""
        if self.tree is not None:
            return self.stats["oracle_value_r"], self.stats["oracle_value_c"]
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


@dataclass
class _Ranking:
    """An epoch's ``pairs`` in the execution rule's order at the belief ``fb``
    (best total reward first, ties toward lower summed cost, then the
    smallest actions) and their per-UE costs-to-go there, ``costs``."""

    fb: FactoredBelief
    pairs: list
    costs: np.ndarray

    @classmethod
    def of(cls, pairs: list, fb: FactoredBelief, support: Support | None = None) -> "_Ranking":
        """The ranking at ``fb``, each pair's entries gathered on its
        support: ``support``, or ``Support(fb)`` when it is not given."""
        support = Support(fb) if support is None else support
        idx, b = support.flat, support.joint
        keyed = []
        for pair in pairs:
            if idx is None:
                r, cs = pair.alpha_r.dot(b), pair.alpha_cs.dot(b).tolist()
            else:
                r, cs = pair.alpha_r.take(idx).dot(b), pair.alpha_cs.take(idx, axis=1).dot(b).tolist()
            keyed.append((-float(r), sum(cs), pair.actions, cs, pair))
        keyed.sort(key=itemgetter(0, 1, 2))
        return cls(fb, [entry[4] for entry in keyed], np.array([entry[3] for entry in keyed]))

    def allotment(self, j: int | None, obs: Observation) -> tuple:
        """What the played pair ``j`` gave the observed branch ``obs``: its
        per-UE costs-to-go at ``fb`` and at the branch (the observed relays'
        axes indexed, the others contracted with their factors), or zeros
        when the rule idled (``j`` None)."""
        if j is None:
            return 0.0, 0.0
        t = self.pairs[j].alpha_cs.reshape((-1,) + tuple(len(f) for f in self.fb.per_relay))
        t = t[_obs_index(obs)]
        for f, z in reversed(list(zip(self.fb.per_relay, obs))):
            if z is None:
                t = t @ f
        return self.costs[j], t.tolist()


def _obs_index(obs: Observation) -> tuple:
    """The index of the observation branch ``obs`` in an array whose last K
    axes are the relays': the observed relays' axes at their regions, the
    others whole."""
    return (Ellipsis,) + tuple(slice(None) if z is None else z for z in obs)


def _first_fit(costs: np.ndarray, budgets: np.ndarray, c_th: float) -> np.ndarray:
    """Per row of ``costs`` (rows, pairs, UEs), the first pair whose every
    UE's cost-to-go fits that row's budget in ``budgets`` (rows, UEs), or
    the pair count where none fits and the rule idles."""
    fits = (costs <= (budgets + _budget_tol(c_th))[:, None, :]).all(axis=2)
    return np.where(fits.any(axis=1), fits.argmax(axis=1), costs.shape[1])


def _play(pairs: list, fb: FactoredBelief, budgets: tuple, c_th: float) -> tuple[_Ranking, int | None]:
    """The execution rule at one belief: the ranking of ``pairs`` at ``fb``
    and the first of them that fits ``budgets``, or None."""
    ranking = _Ranking.of(pairs, fb)
    (j,) = _first_fit(ranking.costs[None], np.array([budgets], dtype=float), c_th).tolist()
    return ranking, (j if j < len(pairs) else None)


def select_pair(
    policy: PolicySolution, epoch: int, fb: FactoredBelief
) -> tuple[AlphaPair | None, tuple[Action, ...]]:
    """Execution rule at the full budgets (``_play``): the best-ranked pair
    whose every UE's cost-to-go at ``fb`` fits ``c_th`` and its actions, or
    ``(None, empty actions)``; episodes pass the budgets left (``sim._Agent``).
    An epoch outside 1..T or a belief not of K factors of n raises ``ValidationError``."""
    if not 1 <= epoch <= len(policy.epochs):
        raise ValidationError(f"epoch {epoch} is outside 1..{len(policy.epochs)}")
    fb.check_shape(len(policy.chains), policy.chains[0].size)
    ranking, j = _play(policy.epochs[epoch - 1], fb, (policy.c_th,) * policy.n_ues, policy.c_th)
    pair = None if j is None else ranking.pairs[j]
    return pair, (EMPTY_ACTION,) * policy.n_ues if pair is None else pair.actions


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


def _column_frontiers(wr: np.ndarray, wc: np.ndarray) -> tuple[np.ndarray, list[np.ndarray]]:
    """``_pareto_indices(wr[:, z], wc[:, z])`` for every column ``z``, sorted at once,
    as ``(lead, rest)``: the row of each column of the leading run that has
    one running record (the column's frontier), and the frontiers after it.
    A stack of one row is every column's frontier and is not sorted."""
    if len(wr) == 1:  # AlphaPair refuses non-finite vectors, so one row is one record
        return np.zeros(wr.shape[1], dtype=np.intp), []
    rows = np.broadcast_to(np.arange(len(wr))[:, None], wr.shape)
    order = np.lexsort((rows, -wr, wc), axis=0)
    rs = np.take_along_axis(wr, order, axis=0)
    rec = _running_records(rs)
    single = rec.sum(axis=0) == 1
    run = len(single) if single.all() else int(single.argmin())
    lead = order[rec[:, :run].argmax(axis=0), np.arange(run)]
    return lead, [_keep_records(order[rec[:, z], z], rs[rec[:, z], z]) for z in range(run, wr.shape[1])]


@dataclass
class _Continuation:
    """The continuation points of one relay set at one anchor belief.

    Point ``i`` adds ``r[i]`` to the reward and ``cs[u, i]`` to UE ``u``'s
    cost. The points are cost-ascending for every UE, and their rewards
    ascend: a root merge of one UE leaves its Pareto frontier, and the local
    rule leaves one point, for any number of UEs. Every point takes row
    ``lead[z]`` at the first ``len(lead)`` branches. The local rule's point
    takes ``lead`` at every branch; a root merge folds its leading
    single-record branches into ``lead``, and ``steps[z]`` holds
    ``(parents, choices)`` for the branch ``len(lead) + z`` after them:
    frontier point ``i`` there extends point ``parents[i]`` of the frontier
    before it with row ``choices[i]``.
    """

    r: np.ndarray
    cs: np.ndarray
    lead: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=int))
    steps: list = field(default_factory=list)

    def __post_init__(self):
        self.rewards = self.r.tolist()
        self.costs = list(zip(*self.cs.tolist()))  # per point, each UE's cost

    def pick(self, rho_r: float, rho_cs: list[float], limit: float):
        """The best point under immediates ``rho_r`` and per-UE ``rho_cs``:
        the highest total reward with every UE's total cost within ``limit``,
        ties to the lowest summed cost, then the lowest index. ``(r, costs,
        point)`` or None.

        The points are cost-ascending for every UE, so each UE's total
        ``rho + c`` as it rounds ascends too, and so does a point's largest
        total over the UEs: the points that fit are a prefix, which one
        ``bisect_right`` on that largest total finds. The rewards ascend, so
        the best is the prefix's last point, walked back to the first point
        whose total reward rounds equal to it: of tied rewards, that one has
        the lowest cost and the lowest index.
        """
        end = bisect_right(self.costs, limit, key=lambda cs: max(map(add, rho_cs, cs)))
        if not end:
            return None
        best = end - 1
        top = rho_r + self.rewards[best]
        while best and rho_r + self.rewards[best - 1] == top:
            best -= 1
        return rho_r + self.rewards[best], tuple(map(add, rho_cs, self.costs[best])), best

    def choices(self, point: int) -> np.ndarray:
        """The source row of every branch at ``point``."""
        start = len(self.lead)
        sigma = np.empty(start + len(self.steps), dtype=int)
        sigma[:start] = self.lead
        for z in range(len(self.steps) - 1, -1, -1):
            parents, choices = self.steps[z]
            sigma[start + z] = choices[point]
            point = int(parents[point])
        return sigma


class _Anchor:
    """Anchor belief ``fb`` of a backup for the scenario's UEs of ``engine``:
    the predicted stack ``g`` (``_Engine.predict_stack``; None with no
    future), its entries on the belief's support ``t`` (one ``take`` on the
    support's flat indices, shaped by its per-relay lengths), each UE's
    immediate (reward, cost) per option, ``imm``, the continuation of every
    relay set scored so far, keyed by its bitmask (``_Engine.relay_axes``),
    and the partial contractions of ``t`` made so far (``scores``)."""

    def __init__(self, engine: "_Engine", fb: FactoredBelief, g: np.ndarray | None):
        self.g, self.support, self.t = g, None, None
        if g is not None:
            with engine.timed("time_score_s"):
                self.support = Support(fb)
                t = g if self.support.flat is None else g.take(self.support.flat, axis=1)
                self.t = t.reshape((len(g),) + tuple(map(len, self.support.index)))
        costs = [expectation(engine.costs, a, fb) for a in engine.singles]
        self.imm = [
            [(expectation(rows, a, fb), c) for a, c in zip(engine.singles, costs)] for rows in engine.rewards
        ]
        self.continuations: dict = {}
        self.contracted: dict = {}

    def scores(self, sel_axes: tuple[int, ...]) -> np.ndarray:
        """Entry ``[j, z]`` is the term that choosing row ``j`` of ``g`` at
        observation branch ``z`` of the relays ``sel_axes`` adds to the value
        at the belief, for the branches of positive probability only (in the
        order of ``Support.probs``): the unselected axes of ``t`` are
        contracted in descending order with their support weights, and the
        selected ones multiplied in. Each partial contraction is kept under
        the axes contracted so far, so the relay sets whose contracted axes
        begin alike make it once."""
        t, weights, done = self.t, self.support.weights, ()
        for ax in sorted(set(range(len(weights))) - set(sel_axes), reverse=True):
            done += (ax,)
            if done not in self.contracted:
                self.contracted[done] = np.tensordot(t, weights[ax], axes=(ax + 1, 0))
            t = self.contracted[done]
        m = len(sel_axes)
        for pos, ax in enumerate(sel_axes):
            t = t * weights[ax].reshape((1,) * (pos + 1) + (-1,) + (1,) * (m - pos - 1))
        return t.reshape(len(t), -1)


class _Engine:
    """Shared per-solve state: tensors, prediction, per-anchor selection and
    assembly, for one UE or several sharing the relays."""

    def __init__(self, scenario: ScenarioConfig, chains: list[MarkovChain]):
        self.chains = chains
        self.gamma = scenario.gamma
        self.c_th = scenario.c_th
        self.k = scenario.n_relays
        self.n = scenario.n_regions
        self.shape = (self.n,) * self.k
        self.flat = self.n**self.k
        self.counters = {
            "predictions": 0,
            "pair_evaluations": 0,
            "branch_merges": 0,
            "frontier_cap_hits": 0,
            "local_mode_selections": 0,
            "select_calls": 0,
        }
        self.timings = dict.fromkeys(
            ("time_belief_set_s", "time_predict_s", "time_score_s", "time_merge_s",
             "time_choose_s", "time_assemble_s"),
            0.0,
        )
        self._nested = 0.0  # the time of the timed blocks inside the open one
        self.limit = self.c_th + _budget_tol(self.c_th)
        self._reward_flat: dict[tuple, np.ndarray] = {}
        self._cost_flat: dict[tuple, np.ndarray] = {}
        self.rewards, self.costs = option_tables(scenario)
        self.singles = [Action((e,)) for e in range(self.k + 1)]

    @contextmanager
    def timed(self, phase: str):
        """Add the wall time of the block, less that of the timed blocks
        nested in it, to ``timings[phase]``: no two phases count the same time."""
        started = time.perf_counter()
        outer, self._nested = self._nested, 0.0
        try:
            yield
        finally:
            elapsed = time.perf_counter() - started
            self.timings[phase] += elapsed - self._nested
            self._nested = outer + elapsed

    def reward_flat(self, action: Action, ue: int = 0) -> np.ndarray:
        key = (ue, action.selected)
        if key not in self._reward_flat:
            self._reward_flat[key] = tabulate(self.rewards[ue], action)
        return self._reward_flat[key]

    def cost_flat(self, action: Action) -> np.ndarray:
        key = action.selected
        if key not in self._cost_flat:
            self._cost_flat[key] = tabulate(self.costs, action)
        return self._cost_flat[key]

    def predict(self, stack: np.ndarray) -> np.ndarray:
        """``gamma * T @ alpha`` for every row ``alpha`` of ``stack``.

        Each relay's chain is applied on a contiguous reshaped view of the
        stack, with the relay's axis as the middle one of three (the last of
        two for the last relay), so no axis is moved and nothing is copied.
        """
        with self.timed("time_predict_s"):
            n = self.n
            t = stack
            for axis, chain in enumerate(self.chains):
                if axis == self.k - 1:
                    t = t.reshape(-1, n) @ chain.matrix.T
                else:
                    t = np.matmul(chain.matrix, t.reshape(-1, n, n ** (self.k - 1 - axis)))
            self.counters["predictions"] += len(stack)
            return self.gamma * t.reshape(len(stack), -1)

    def predict_stack(self, pairs: list) -> np.ndarray:
        """``predict`` of the (1 + N) * P rows of P stored pairs of N UEs,
        stacked in one call: every pair's reward, then every pair's cost for
        UE 0, and so on."""
        stack = np.empty((1 + len(pairs[0].alpha_cs), len(pairs), self.flat))
        for j, pair in enumerate(pairs):
            stack[0, j] = pair.alpha_r
            stack[1:, j] = pair.alpha_cs
        return self.predict(stack.reshape(-1, self.flat))

    def relay_axes(self, relays: int) -> tuple[int, ...]:
        """The axes of the relay set ``relays``, a bitmask with bit ``i`` for
        relay axis ``i`` (option ``i + 1``), ascending."""
        return tuple(ax for ax in range(self.k) if relays >> ax & 1)

    def continuation(self, anchor: _Anchor, relays: int) -> _Continuation | None:
        """The continuation points of the relay set ``relays`` (a bitmask,
        see ``relay_axes``) at ``anchor``, computed once per anchor; None
        when some branch has no choice within the budget."""
        if relays in anchor.continuations:
            return anchor.continuations[relays]
        sel_axes = self.relay_axes(relays)
        n_ues = len(anchor.imm)
        if anchor.g is None:
            cont = _Continuation(np.zeros(1), np.zeros((n_ues, 1)))
        else:
            with self.timed("time_score_s"):
                w = anchor.scores(sel_axes)
                self.counters["pair_evaluations"] += w.size
            rows = len(w) // (1 + n_ues)
            wr, wcs = w[:rows], w[rows:].reshape(n_ues, rows, -1)
            with self.timed("time_merge_s"):
                # Root or local is decided on all n^m branches of the relay set,
                # not on the count its support leaves, which keeps root merges
                # to small relay sets. Deciding on the support keeps executed
                # policies within budget too (the execution rule passes each
                # branch what its plan left), but its merge cost is unmeasured.
                if n_ues == 1 and self.n ** len(sel_axes) <= ROOT_BRANCH_CAP:
                    cont = self._root_merge(wr, wcs[0])
                else:
                    self.counters["local_mode_selections"] += 1
                    sigma = self._local_select(wr, wcs, anchor.support.probs(sel_axes))
                    cols = np.arange(len(sigma))
                    cont = _Continuation(
                        np.array([wr[sigma, cols].sum()]),
                        wcs[:, sigma, cols].sum(axis=1)[:, None],
                        lead=sigma,
                    )
        anchor.continuations[relays] = cont
        return cont

    def _root_merge(self, wr: np.ndarray, wc: np.ndarray) -> _Continuation | None:
        """The Pareto frontier of ``(sum_z wr[j_z, z], sum_z wc[j_z, z])`` over
        one row ``j_z`` per branch (column), merged branch by branch from
        (0, 0). After each branch only points with cost within the budget
        survive, and a frontier longer than ``FRONTIER_CAP`` is thinned to that
        many evenly spaced points. None when some branch has no choice within
        the budget; ``branch_merges`` counts the branches before it.

        The leading branches whose column has one running record each add
        that row to a frontier of one point, where the cap cannot fire, so
        they are folded in one ``np.add.accumulate`` over ``[0.0, w_0, w_1,
        ...]``: it is sequential, so its partial sums, signed zeros included,
        and the first that fails ``<= limit`` are the branch-by-branch ones."""
        limit = self.limit
        lead, frontiers = _column_frontiers(wr, wc)
        cols = np.arange(len(lead))
        rs = np.add.accumulate(np.concatenate(([0.0], wr[lead, cols])))
        cs = np.add.accumulate(np.concatenate(([0.0], wc[lead, cols])))
        over = np.flatnonzero(~(cs[1:] <= limit))
        if len(over):
            self.counters["branch_merges"] += int(over[0])
            return None
        self.counters["branch_merges"] += len(lead)
        r, c = rs[-1:], cs[-1:]
        steps = []
        for z, cand in enumerate(frontiers, start=len(lead)):
            rr = (r[:, None] + wr[cand, z][None, :]).ravel()
            cc = (c[:, None] + wc[cand, z][None, :]).ravel()
            ok = np.flatnonzero(cc <= limit)
            if not len(ok):
                return None
            self.counters["branch_merges"] += 1
            keep = ok[_pareto_indices(rr[ok], cc[ok])]
            if len(keep) > FRONTIER_CAP:
                self.counters["frontier_cap_hits"] += 1
                # steps of more than 1, so the rounded indices strictly increase
                keep = keep[np.linspace(0, len(keep) - 1, FRONTIER_CAP).round().astype(int)]
            r, c = rr[keep], cc[keep]
            steps.append((keep // len(cand), cand[keep % len(cand)]))
        return _Continuation(r, c[None], lead=lead, steps=steps)

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

    def select(self, assignment: tuple[tuple[int, ...], ...], anchor: _Anchor):
        """The best budget-feasible continuation of ``assignment`` (one option
        tuple per UE) at ``anchor``: ``(reward, per-UE costs, point)``, where
        ``point`` indexes the continuation of the assignment's relay set
        (``_Continuation.pick``), or None when some UE's budget cannot hold.

        One pass over the options sums the immediates, UE by UE and option
        by option, and ORs the relay set's bitmask (``relay_axes``), so a
        call costs a few float operations and one dict lookup besides the
        pick; ``select_calls`` counts the calls."""
        self.counters["select_calls"] += 1
        rho_r = 0.0
        rho_cs = []
        bits = 0
        for imm, options in zip(anchor.imm, assignment):
            c = 0.0
            for e in options:
                r_e, c_e = imm[e]
                rho_r += r_e
                c += c_e
                bits |= 1 << e
            rho_cs.append(c)
        if max(rho_cs) > self.limit:
            return None
        cont = self.continuation(anchor, bits >> 1)
        return None if cont is None else cont.pick(rho_r, rho_cs, self.limit)

    def best_action(self, anchor: _Anchor):
        """cpbvi's exhaustive choice at ``anchor`` for one UE: over every
        action, the highest ``select`` reward, ties to the lower cost, then
        the smaller action. Returns ``(assignment, point)`` or None when
        nothing fits the budget."""
        if 2 ** (self.k + 1) > EXACT_ACTION_CAP:
            raise CapExceededError(
                f"{2 ** (self.k + 1)} candidate actions; use the greedy solver for K > 5"
            )
        best = None
        for action in all_actions(self.k):
            picked = self.select((action.selected,), anchor)
            if picked is None:
                continue
            r, (c,), point = picked
            key = (-r, c, action.selected)
            if best is None or key < best[0]:
                best = (key, ((action.selected,), point))
        return None if best is None else best[1]

    def greedy(self, anchor: _Anchor):
        """The paper's greedy over (UE, option) elements at ``anchor``.

        From the empty assignment S, each round adds the element ``e`` of
        best marginal gain: the increase in ``select``'s reward (a set's
        immediates plus its best continuation) over the increase in its cost
        summed over UEs. An element enters only when it raises the reward
        and passes the printed algorithm's strict test: the charged UE's
        cost of S + {e} stays below ``c_th``, or ``e`` is free (its cost
        increase at most 1e-12 * c_th), so a free element enters even at a
        zero budget. Free elements rank first, by gain. The result is the
        better of S and the best single element that round one admitted
        (Khuller, Moss & Naor 1999): ratio greedy alone has no constant
        factor under a knapsack. Returns ``(assignment, point)`` or None when
        nothing fits the budget.
        """
        n_ues = len(anchor.imm)
        free = 1e-12 * max(1.0, self.c_th)
        chosen = ((),) * n_ues
        current = self.select(chosen, anchor)
        single = None
        while True:
            base_r, base_c = (current[0], sum(current[1])) if current else (0.0, 0.0)
            first_round = not any(chosen)
            best = None
            for u, options in enumerate(chosen):
                head, tail = chosen[:u], chosen[u + 1 :]
                for e in range(self.k + 1):
                    if e in options:
                        continue
                    cand = head + (tuple(sorted(options + (e,))),) + tail
                    got = self.select(cand, anchor)
                    if got is None:
                        continue
                    gain, cost = got[0] - base_r, sum(got[1]) - base_c
                    if gain <= 0.0 or not (got[1][u] < self.c_th or cost <= free):
                        continue
                    key = (0, -gain, u, e) if cost <= free else (1, -gain / cost, -gain, u, e)
                    if best is None or key < best[0]:
                        best = (key, cand, got)
                    if first_round and (single is None or got[0] > single[1][0]):
                        single = (cand, got)
            if best is None:
                break
            _, chosen, current = best
        if single is not None and single[1][0] > current[0]:
            chosen, current = single
        return None if current is None else (chosen, current[2])

    def gather(self, stack: np.ndarray, sel_axes: tuple[int, ...], rows: np.ndarray) -> np.ndarray:
        """The continuations that ``rows`` (combinations, n^m) pick from
        ``stack`` (groups, pairs, flat), as (groups, combinations, flat): a row
        names one stored pair per observation branch of the relays
        ``sel_axes`` (ascending), branches in row-major order of their regions.
        Row 0 at every joint state, then one masked pass per other pair named,
        broadcast over the combinations, so a stack of one pair takes no pass."""
        dims = tuple(self.n if ax in sel_axes else 1 for ax in range(self.k))
        stack = stack.reshape(stack.shape[:2] + self.shape)
        picked = stack[:, :1]
        for j in sorted(set(rows.ravel().tolist()) - {0}):
            picked = np.where((rows == j).reshape((len(rows),) + dims), stack[:, j : j + 1], picked)
        return np.broadcast_to(picked, (len(stack), len(rows)) + self.shape).reshape(len(stack), len(rows), -1)

    def assemble(self, anchor: _Anchor, chosen, built: dict) -> AlphaPair:
        """The pair of ``chosen``, an ``(assignment, point)`` at ``anchor``:
        the reward (flat), each UE's cost (N, flat) and each UE's action,
        the continuation gathered from the predicted stack (``gather``) by
        its rows, one stored row per branch of the assignment's relays. A
        branch of probability 0 continues with row 0. None gives the empty
        assignment's zero vectors.

        A backup's anchors share the predicted stack, so the assignment and
        the rows fix the pair: ``built`` keeps the backup's pairs under them
        (the rows as bytes of their smallest unsigned type, None when every
        branch takes row 0), and a pair is made once per key."""
        n_ues = len(anchor.imm)
        if chosen is None:
            if None not in built:
                built[None] = AlphaPair(np.zeros(self.flat), np.zeros((n_ues, self.flat)), (EMPTY_ACTION,) * n_ues)
            return built[None]
        assignment, point = chosen
        with self.timed("time_assemble_s"):
            rows = None
            if anchor.g is not None:
                relays = sum({1 << e for options in assignment for e in options}) >> 1
                sel_axes = self.relay_axes(relays)
                choices = self.continuation(anchor, relays).choices(point)
                if choices.any():
                    support = [anchor.support.index[ax] for ax in sel_axes]
                    rows = np.zeros((self.n,) * len(sel_axes), dtype=int)
                    rows[np.ix_(*support)] = choices.reshape(tuple(map(len, support)))
            key = (assignment, None if rows is None else rows.astype(np.min_scalar_type(rows.max())).tobytes())
            if key not in built:
                actions = tuple(map(Action, assignment))
                alpha_r = np.zeros(self.flat)
                for u, action in enumerate(actions):
                    alpha_r += self.reward_flat(action, u)
                alpha_cs = np.array([self.cost_flat(action) for action in actions])
                if anchor.g is not None:
                    stack = anchor.g.reshape(1 + n_ues, -1, self.flat)
                    picked = stack[:, 0] if rows is None else self.gather(stack, sel_axes, rows.reshape(1, -1))[:, 0]
                    alpha_r += picked[0]
                    alpha_cs += picked[1:]
                built[key] = AlphaPair(alpha_r, alpha_cs, actions)
        return built[key]


# --- point-based backups ---------------------------------------------------


def _distinct_pairs(pairs: list) -> list:
    """``pairs`` without the copies: a pair is dropped when an earlier one
    is the same object (``_Engine.assemble`` makes each distinct pair of a
    backup once) or has equal ``actions`` and equal ``alpha_r`` and
    ``alpha_cs``. The first of each stays, in order.

    Nothing a solve stores or plays changes: the backups and the execution
    rule resolve equal rows to the lowest index, which is the kept copy.
    """
    out = []
    for pair in pairs:
        if not any(
            q is pair
            or q.actions == pair.actions
            and np.array_equal(q.alpha_r, pair.alpha_r)
            and np.array_equal(q.alpha_cs, pair.alpha_cs)
            for q in out
        ):
            out.append(pair)
    return out


def _point_backup(engine: _Engine, v_next: list[AlphaPair], points: BeliefSet, choose) -> list[AlphaPair]:
    """One point-based iteration for the scenario's UEs: per anchor belief of
    ``points``, the pair of the ``(assignment, point)`` that
    ``choose(anchor)`` picks, with its budget-coupled continuation choices.
    Always returns one pair per anchor (the empty assignment's zero pair when
    nothing is feasible); anchors that pick the same pair share its object
    (``_Engine.assemble``)."""
    g = engine.predict_stack(v_next) if v_next else None
    out, built = [], {}
    for fb in points.points:
        anchor = _Anchor(engine, fb, g)
        with engine.timed("time_choose_s"):
            chosen = choose(anchor)
        out.append(engine.assemble(anchor, chosen, built))
    return out


def cpbvi_backup(engine: _Engine, v_next: list[AlphaPair], points: BeliefSet) -> list[AlphaPair]:
    """CPBVI's iteration: each anchor takes the exhaustive constrained argmax
    (``_Engine.best_action``)."""
    return _point_backup(engine, v_next, points, engine.best_action)


def gcpbvi_backup(engine: _Engine, v_next: list[AlphaPair], points: BeliefSet) -> list[AlphaPair]:
    """GCPBVI's iteration: each anchor takes the greedy's per-UE actions
    (``_Engine.greedy``), never enumerating the 2^K action set."""
    return _point_backup(engine, v_next, points, engine.greedy)


# --- exact solver ------------------------------------------------------------


def exact_backup(engine: _Engine, v_t: list[AlphaPair]) -> list[AlphaPair]:
    """One enumerated dynamic-programming update over all actions, each
    action's cross-sum one array: its combinations of per-branch choices in
    ``itertools.product`` order, gathered in one call (``_Engine.gather``).

    Pruning: exact duplicates and pointwise-dominated pairs are removed per
    observation branch and again after the action union, and only the kept
    rows become pairs; this never changes the constrained maximum at any
    belief. Of equal pairs the first in ``all_actions`` order stays, so when
    an option adds zero reward and zero cost (a free, zero-reward direct
    link) the action without it is stored.
    """
    if engine.flat > EXACT_STATE_CAP:
        raise CapExceededError(
            f"joint space {engine.flat} exceeds the exact-solver cap {EXACT_STATE_CAP}; "
            "use cpbvi or gcpbvi"
        )
    actions = all_actions(engine.k)
    if len(actions) > EXACT_ACTION_CAP:
        raise CapExceededError("too many actions for the exact solver; use gcpbvi")

    # the predicted reward rows, then the cost rows (predict_stack), over joint states
    stack = engine.predict_stack(v_t).reshape((2, len(v_t)) + engine.shape) if v_t else None
    parts, acts = [], []
    for action in actions:
        r, c = engine.reward_flat(action)[None], engine.cost_flat(action)[None]
        if stack is not None:
            # the selected relays' axes first: one (group, pair, rest) column per branch
            sel_axes = tuple(i - 1 for i in action.relays)
            columns = np.moveaxis(stack, [2 + ax for ax in sel_axes], range(len(sel_axes)))
            columns = columns.reshape(engine.n ** len(sel_axes), 2, len(v_t), -1)
            branch_choices = [_pointwise_undominated(*col) for col in columns]
            n_combos = math.prod(map(len, branch_choices))
            if n_combos > EXACT_CROSS_CAP:
                raise CapExceededError(
                    f"action {action.selected} cross-sum would produce {n_combos} pairs "
                    f"(cap {EXACT_CROSS_CAP}); reduce the horizon or use a point-based solver"
                )
            rows = np.array(list(itertools.product(*branch_choices)), dtype=int)
            g_r, g_c = engine.gather(stack.reshape(2, len(v_t), -1), sel_axes, rows)
            r, c = r + g_r, c + g_c
        parts.append((r, c))
        acts += [action] * len(r)
    r, c = map(np.concatenate, zip(*parts))
    return [AlphaPair(r[i].copy(), c[i : i + 1].copy(), (acts[i],)) for i in _pointwise_undominated(r, c)]


def _branch_obs(action: Action, regions, k: int) -> Observation:
    """The observation of ``action`` when its relays, in order, report ``regions``."""
    z: list[int | None] = [None] * k
    for rel, region in zip(action.relays, regions):
        z[rel - 1] = int(region)
    return tuple(z)


def _pointwise_undominated(r: np.ndarray, c: np.ndarray) -> np.ndarray:
    """Indices, ascending, not pointwise-dominated by any other row pair.

    Row j dominates row i when ``r[j] >= r[i]`` and ``c[j] <= c[i]``
    everywhere; of equal rows (as numbers, so -0.0 equals 0.0) the first stays.
    """
    _, first = np.unique(np.hstack([r, c]), axis=0, return_index=True)
    first.sort()
    r, c = r[first], c[first]
    dominated = np.zeros(len(first), dtype=bool)
    chunk = 32  # rows per block: the comparisons hold chunk * rows * flat booleans
    for start in range(0, len(first), chunk):
        block = np.arange(start, min(start + chunk, len(first)))
        dom = (r[None] >= r[block, None]).all(-1) & (c[None] <= c[block, None]).all(-1)
        dom[np.arange(len(block)), block] = False  # a row does not dominate itself
        dominated[block] = dom.any(axis=1)
    return first[~dominated]


# --- top-level solves --------------------------------------------------------


def _one_ue(method: str, scenario: ScenarioConfig) -> None:
    """Refuse a scenario of several UEs for a method that plans one UE."""
    if scenario.n_ues > 1:
        raise ValidationError(
            f"{method} plans one UE and the scenario has {scenario.n_ues}; "
            "plan them all with the centralized solve (--method centralized)"
        )


def _solution(
    method: str, scenario: ScenarioConfig, chains: list[MarkovChain], started: float,
    stats: dict, **plan,
) -> PolicySolution:
    """The solved ``plan`` (its epochs or its tree) with the scenario's
    scalars and the stats, closed by the wall time since ``started``."""
    stats["wall_time_s"] = round(time.perf_counter() - started, 6)
    return PolicySolution(
        method=method, horizon=scenario.horizon, gamma=scenario.gamma, c_th=scenario.c_th,
        chains=chains, scenario_fingerprint=scenario.fingerprint(),
        initial_state=scenario.initial_states, stats=stats, **plan,
    )


def solve_exact(
    scenario: ScenarioConfig,
    chains: list[MarkovChain] | None = None,
) -> PolicySolution:
    _one_ue("exact", scenario)
    started = time.perf_counter()
    chains = chains if chains is not None else chains_for_scenario(scenario)
    horizon = scenario.horizon
    engine = _Engine(scenario, chains)
    epochs: list[list[AlphaPair] | None] = [None] * horizon
    v: list[AlphaPair] = []
    for tau in range(1, horizon + 1):
        v = epochs[horizon - tau] = exact_backup(engine, v)
    stats = {"pairs_per_epoch": [len(e) for e in epochs], **engine.counters}
    return _solution("exact", scenario, chains, started, stats, epochs=epochs)


def _error_bounds(scenario: ScenarioConfig, chains: list[MarkovChain], h: int) -> tuple:
    """The whole depth-h set's density bound and the worst-case reward and
    cost errors (eta_r, eta_c) it implies, the reward's range N times the
    largest UE's (it sums over UEs); SpectralError if the chains do not mix."""
    bound = density_bound(chains, h)
    r_range, c_range = value_ranges(scenario)
    etas = pbvi_error_bound(bound, scenario.gamma, scenario.horizon, scenario.n_ues * r_range, c_range)
    return bound, *etas


def horizon_for_eps(eps: float, scenario: ScenarioConfig, chains: list[MarkovChain]) -> int:
    """The smallest depth h whose whole-set eta_r and eta_c bounds are both within ``eps``.

    A solve prints these bounds only when its cap keeps the whole depth-h
    set, and the set grows fast with h: on ``table1.json`` every ``eps`` up
    to 1e4 gives h >= 82, whose set has 2.26e9 points, so a solve capped at
    256 points prints them as None."""
    if eps <= 0:
        raise ValidationError(f"eps must be > 0, got {eps}")

    def fits(h: int) -> bool:
        return max(_error_bounds(scenario, chains, h)[1:]) <= eps

    lo, hi = 0, 1  # the bounds fall with h: double until one fits, then bisect
    while not fits(hi):
        lo, hi = hi, 2 * hi
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (lo, mid) if fits(mid) else (mid, hi)
    return hi


def _solve_point_based(
    method: str,
    scenario: ScenarioConfig,
    chains: list[MarkovChain] | None,
    h: int | None,
    cap: int,
) -> PolicySolution:
    """cpbvi, gcpbvi or centralized over the horizon, from the last epoch
    back, at the first ``cap`` points of the depth-h belief set (h defaults
    to the horizon). Centralized is gcpbvi's backup for every UE; the others
    refuse several UEs. Each epoch stores the distinct pairs of its backup's
    one pair per anchor (``_distinct_pairs``). The density and eta bounds
    describe the whole h-set, so a truncated set reports them as None."""
    if method != "centralized":
        _one_ue(method, scenario)
    started = time.perf_counter()
    chains = chains if chains is not None else chains_for_scenario(scenario)
    engine = _Engine(scenario, chains)
    h = h if h is not None else scenario.horizon
    with engine.timed("time_belief_set_s"):
        belief_set = build_h_belief_set(scenario.initial_states, h, chains, cap=cap)
    backup = cpbvi_backup if method == "cpbvi" else gcpbvi_backup
    horizon = scenario.horizon
    epochs: list[list[AlphaPair] | None] = [None] * horizon
    v: list[AlphaPair] = []
    for tau in range(1, horizon + 1):
        v = epochs[horizon - tau] = _distinct_pairs(backup(engine, v, belief_set))

    bounds = (None, None, None)  # on a truncated set, or chains that do not mix
    if len(belief_set) == math.prod(len(f) for f in belief_set.per_relay_families):
        with suppress(SpectralError):
            bounds = _error_bounds(scenario, chains, h)
    stats = {
        "belief_points": len(belief_set),
        "belief_h": h,
        "pairs_per_epoch": [len(e) for e in epochs],
    }
    stats.update(zip(("density_bound", "eta_r_bound", "eta_c_bound"), bounds))
    stats.update({phase: round(t, 6) for phase, t in engine.timings.items()})
    stats.update(engine.counters)
    return _solution(method, scenario, chains, started, stats, epochs=epochs)


def solve_cpbvi(
    scenario: ScenarioConfig,
    chains: list[MarkovChain] | None = None,
    h: int | None = None,
    cap: int = 5000,
) -> PolicySolution:
    return _solve_point_based("cpbvi", scenario, chains, h, cap)


def solve_gcpbvi(
    scenario: ScenarioConfig,
    chains: list[MarkovChain] | None = None,
    h: int | None = None,
    cap: int = 5000,
) -> PolicySolution:
    return _solve_point_based("gcpbvi", scenario, chains, h, cap)


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
) -> PolicySolution:
    """Exact constrained optimum over deterministic observation-contingent
    plans, by multi-objective DP on forward-filtered state distributions.

    Kept independent of the alpha-vector machinery on purpose: it filters
    distributions forward, enumerates per-branch Pareto sets of achievable
    (reward, cost) outcomes, and composes them bottom-up.
    """
    _one_ue("oracle", scenario)
    started = time.perf_counter()
    chains = chains if chains is not None else chains_for_scenario(scenario)
    horizon = scenario.horizon
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
    rewards, costs = option_tables(scenario)
    r_flat = {a.selected: tabulate(rewards[0], a) for a in actions}
    c_flat = {a.selected: tabulate(costs, a) for a in actions}
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
            for combo in itertools.product(range(n), repeat=len(action.relays)):
                obs = _branch_obs(action, combo, k)
                index = _obs_index(obs)
                masked = np.zeros(shape)
                masked[index] = dist_t[index]
                p_z = float(masked.sum())
                if p_z <= 0.0:
                    continue
                nxt = (masked.reshape(-1) / p_z) @ t_joint
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
    stats = {"oracle_value_r": best[0], "oracle_value_c": best[1], "contexts": len(memo)}
    return _solution("oracle", scenario, chains, started, stats, tree=best[2])


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


def _obs_from_key(key: str, k: int, n: int, path: str) -> Observation:
    """The observation a policy file's child ``key`` at ``path`` names,
    refused unless it has one entry per relay, each ``-`` or a region in
    0..n-1."""
    obs = tuple(None if part == "-" else int(part) for part in key.split(","))
    if len(obs) != k or not all(z is None or 0 <= z < n for z in obs):
        raise ValidationError(f"{path} is not an observation of {k} relays over regions 0..{n - 1}")
    return obs


def _tree_to_dict(tree: OracleTree) -> dict:
    return {
        "action": list(tree.action.selected),
        "children": {_obs_key(z): _tree_to_dict(sub) for z, sub in tree.children.items()},
    }


def _tree_from_dict(data: dict, k: int, n: int, path: str = "tree") -> OracleTree:
    if not isinstance(data, dict):
        raise ValidationError(f"{path} is not a JSON object")
    if not isinstance(data.get("children", {}), dict):
        raise ValidationError(f"{path}.children is not a JSON object")
    children = {}
    for key, sub in data.get("children", {}).items():
        at = f"{path}.children.{key}"
        children[_obs_from_key(key, k, n, at)] = _tree_from_dict(sub, k, n, at)
    return OracleTree(action=_stored_action(data["action"], k, f"{path}.action"), children=children)


def _stored_action(selected: list, k: int, path: str) -> Action:
    """A policy file's action at ``path``, refused if an option is not an
    integer or lies outside 0..K."""
    action = Action(tuple(_as_int(o, f"{path}[{i}]") for i, o in enumerate(selected)))
    if action.selected and action.selected[-1] > k:
        raise ValidationError(f"stored action {action.selected} names an option outside 0..{k}")
    return action


def save_policy(policy: PolicySolution, path) -> None:
    """Write ``policy`` to exactly ``path`` as a version-2 policy archive.

    The archive is the uncompressed ``np.savez`` layout: ``chains`` (K, n, n);
    ``alpha_r_<e>`` (pairs, n^K) and ``alpha_c_<e>`` (pairs, N, n^K) for
    every epoch ``e`` of a policy of N UEs; and ``meta``, a JSON string with
    the scalars, each pair's per-UE actions per epoch, the stats and the
    oracle tree. The belief set a point-based solve anchored to is not
    stored: playing a policy needs its pairs only, and the stats carry the
    set's size and depth. Member timestamps are fixed, so equal policies
    give equal bytes.
    """
    chains = np.stack([chain.matrix for chain in policy.chains])
    n_ues, flat = policy.n_ues, chains.shape[1] ** chains.shape[0]
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
        "stats": policy.stats,
        "tree": _tree_to_dict(policy.tree) if policy.tree is not None else None,
    }
    if policy.epochs is not None:
        meta["epoch_actions"] = [
            [[list(a.selected) for a in pair.actions] for pair in pairs] for pairs in policy.epochs
        ]
        for e, pairs in enumerate(policy.epochs, start=1):
            arrays[f"alpha_r_{e}"] = np.array([p.alpha_r for p in pairs]).reshape(len(pairs), flat)
            arrays[f"alpha_c_{e}"] = np.reshape([p.alpha_cs for p in pairs], (len(pairs), n_ues, flat))
    arrays["meta"] = np.array(json.dumps(meta))
    with open(path, "wb") as fh, zipfile.ZipFile(fh, "w", zipfile.ZIP_STORED) as archive:
        for name, value in arrays.items():
            info = zipfile.ZipInfo(f"{name}.npy", date_time=(1980, 1, 1, 0, 0, 0))
            with archive.open(info, "w", force_zip64=True) as member:
                np.lib.format.write_array(member, value, allow_pickle=False)


def load_policy(path) -> PolicySolution:
    """Read a policy archive written by :func:`save_policy`.

    Every chain and pair goes through its validating constructor. A
    version-1 archive (one action and one cost row per pair) is read as a
    policy of one UE. The belief points and belief-set metadata that older
    archives hold are ignored. A file that is not a version-1 or version-2
    policy archive (an old JSON policy, a truncated or foreign file, a
    missing or unknown version, a mis-shaped array, neither or both of the
    stored epochs and the oracle tree, an oracle without its value) raises
    ``ValidationError``.
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
        if version not in (1, POLICY_FORMAT_VERSION):
            raise ValidationError(
                f"policy format version {version!r}, expected 1 or {POLICY_FORMAT_VERSION}"
            )
        stacked = archive["chains"]
        if stacked.ndim != 3 or stacked.shape[0] < 1 or stacked.shape[1] != stacked.shape[2]:
            raise ValidationError(f"chains have shape {stacked.shape}, expected (K, n, n)")
        k, n = stacked.shape[:2]
        chains = [MarkovChain(m) for m in stacked]
        gamma, c_th = _as_number(meta["gamma"], "gamma"), _as_number(meta["c_th"], "c_th")
        if not 0.0 <= gamma <= 1.0:
            raise ValidationError(f"gamma must be in [0, 1], got {gamma}")
        if c_th < 0:
            raise ValidationError(f"c_th must be >= 0, got {c_th}")
        initial_state = tuple(
            _as_int(s, f"initial_state[{i}]") for i, s in enumerate(meta["initial_state"])
        )
        if len(initial_state) != k:
            raise ValidationError(f"initial state {initial_state} does not have {k} relays")
        if not all(0 <= s < n for s in initial_state):
            raise ValidationError(f"initial state {initial_state} has a region outside 0..{n - 1}")

        horizon = _as_int(meta["horizon"], "horizon")
        if (meta["epoch_actions"] is None) == (meta["tree"] is None):
            which = "neither epoch_actions nor" if meta["tree"] is None else "both epoch_actions and"
            raise ValidationError(f"policy stores {which} tree, expected one plan")
        if not isinstance(meta["stats"], dict):
            raise ValidationError("stats is not a JSON object")
        if meta["tree"] is not None:  # planned_value reads the oracle's value from its stats
            for key in ("oracle_value_r", "oracle_value_c"):
                _as_number(meta["stats"].get(key), f"stats.{key}")
        epochs = None
        if meta["epoch_actions"] is not None:
            epochs = []
            for e, actions in enumerate(meta["epoch_actions"], start=1):
                if not actions:
                    raise ValidationError(f"epoch {e} stores no pair")
                rewards, costs = archive[f"alpha_r_{e}"], archive[f"alpha_c_{e}"]
                if version == 1:  # one UE: an action and a cost row per pair
                    actions = [[a] for a in actions]
                    costs = costs.reshape(costs.shape[:1] + (1,) + costs.shape[1:])
                n_ues = costs.shape[1] if costs.ndim == 3 else 0
                want = (len(actions), n**k)
                if not n_ues or rewards.shape != want or costs.shape != (want[0], n_ues, want[1]):
                    raise ValidationError(
                        f"epoch {e} stacks have shapes {rewards.shape} and {costs.shape}, "
                        f"expected ({len(actions)}, {n**k}) and ({len(actions)}, N, {n**k})"
                    )
                epochs.append([
                    AlphaPair(r, cs, tuple(
                        _stored_action(a, k, f"epoch_actions[{e - 1}][{j}][{q}]") for q, a in enumerate(acts)
                    ))
                    for j, (r, cs, acts) in enumerate(zip(rewards, costs, actions))
                ])
            if len(epochs) != horizon:
                raise ValidationError(f"{len(epochs)} epochs stored for horizon {horizon}")
            if len({len(pair.actions) for pairs in epochs for pair in pairs}) > 1:
                raise ValidationError("epochs store pairs of different numbers of UEs")

    return PolicySolution(
        method=meta["method"],
        horizon=horizon,
        gamma=gamma,
        c_th=c_th,
        chains=chains,
        scenario_fingerprint=meta["scenario_fingerprint"],
        initial_state=initial_state,
        epochs=epochs,
        tree=_tree_from_dict(meta["tree"], k, n) if meta["tree"] is not None else None,
        stats=meta["stats"],
    )
