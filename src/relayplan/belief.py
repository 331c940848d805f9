"""Belief-state machinery: factored filters, belief sets, coverage bounds.

Beliefs factor per relay: the joint belief is the outer product of the
per-relay location distributions. Observation timing follows the filter
recursion of the underlying model: selecting a relay reveals its *current*
region, so the belief carried into the next epoch is the corresponding
transition-matrix row for observed relays and the one-step prediction
``b P`` for the rest. Every belief reachable from a known start is therefore
either the initial one-hot or a row of some matrix power, which is exactly
the family the h-belief set enumerates.

Only the selected relays are observed, so a stored vector is read on a
belief's support only, the joint states where every factor is positive.
``Support`` gathers it once per belief, per relay and as flat indices, for
the execution rule and for the point-based backups' anchors.

``density_bound`` covers a whole h-belief set; the solvers turn it into
value-error bounds and a depth for a target error (``horizon_for_eps``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import CapExceededError, ValidationError
from .mobility import MarkovChain
from .model import Action, JointState

# Per-relay entry of an observation vector: a region index for selected
# relays, None for unselected ones (their only observation is "nothing").
Observation = tuple[int | None, ...]

DEDUP_TOL = 1e-9
JOINT_CAP = 10**6
PRODUCT_CAP = 5000


def _frozen(vec: np.ndarray) -> np.ndarray:
    vec = np.asarray(vec, dtype=float)
    vec.setflags(write=False)
    return vec


@dataclass(frozen=True)
class FactoredBelief:
    """Per-relay location distributions whose product is the joint belief."""

    per_relay: tuple[np.ndarray, ...]

    def __post_init__(self):
        vecs = []
        for i, b in enumerate(self.per_relay):
            b = np.asarray(b, dtype=float)
            if b.ndim != 1 or not np.isfinite(b).all():
                raise ValidationError(f"belief factor {i} must be a vector of finite entries")
            if np.any(b < -1e-12):
                raise ValidationError(f"belief factor {i} has negative entries")
            if abs(b.sum() - 1.0) > DEDUP_TOL:
                raise ValidationError(f"belief factor {i} sums to {b.sum()}, expected 1")
            vecs.append(_frozen(np.clip(b, 0.0, None)))
        object.__setattr__(self, "per_relay", tuple(vecs))

    @property
    def n_relays(self) -> int:
        return len(self.per_relay)

    def check_shape(self, k: int, n: int) -> None:
        """Refuse a belief other than ``k`` factors of ``n`` regions each."""
        if [len(b) for b in self.per_relay] != [n] * k:
            raise ValidationError(f"belief factor lengths {list(map(len, self.per_relay))}; expected K={k}, n={n}")

    @staticmethod
    def one_hot(state: JointState, n_regions: int) -> "FactoredBelief":
        vecs = []
        for s in state:
            v = np.zeros(n_regions)
            v[s] = 1.0
            vecs.append(v)
        return FactoredBelief(tuple(vecs))


def update_relay_belief(
    belief: np.ndarray, chain: MarkovChain, selected: bool, obs: int | None
) -> np.ndarray:
    """One relay's filter step: prediction if unselected, row-reset if observed."""
    if selected and obs is None:
        raise ValidationError("selected relay must come with an observation")
    if not selected and obs is not None:
        raise ValidationError("unselected relay cannot have an observation")
    if selected:
        return chain.matrix[obs].copy()
    return np.asarray(belief) @ chain.matrix


def advance_belief(
    fb: FactoredBelief, chains: list[MarkovChain], action: Action, obs: Observation
) -> FactoredBelief:
    """Apply one epoch of filtering for all relays under ``action``/``obs``."""
    relays = set(action.relays)
    vecs = []
    for i, (b, chain) in enumerate(zip(fb.per_relay, chains)):
        selected = (i + 1) in relays
        vecs.append(update_relay_belief(b, chain, selected, obs[i] if selected else None))
    return FactoredBelief(tuple(vecs))


class FactorTable:
    """Filter factors of a known start, keyed by integer ids.

    Every factor the filter reaches is the start one-hot or a row of a
    matrix power, so each relay's belief is an id ``(s, m)``: ``(s0, 0)`` is
    the start one-hot, an observation of region ``s`` resets it to ``(s, 1)``
    and an unobserved epoch advances ``(s, m)`` to ``(s, m + 1)``. Factors are
    built by ``update_relay_belief``'s prediction, ``factor(s, m) =
    factor(s, m - 1) @ P``, so they are bitwise those of repeated
    ``advance_belief``: the one-hot row of region ``s`` times ``P`` is exactly
    the row ``P[s]`` an observation resets to.
    """

    def __init__(self, chains: list[MarkovChain]):
        self.chains = chains
        self._factors: dict[tuple[int, int, int], np.ndarray] = {}

    def factor(self, relay: int, s: int, m: int) -> np.ndarray:
        vec = self._factors.get((relay, s, m))
        if vec is None:
            chain = self.chains[relay]
            if m == 0:
                vec = np.zeros(chain.size)
                vec[s] = 1.0
            else:
                vec = self.factor(relay, s, m - 1) @ chain.matrix
            vec = FactoredBelief((vec,)).per_relay[0]  # validated and frozen once
            self._factors[(relay, s, m)] = vec
        return vec

    def belief(self, ids: tuple[tuple[int, int], ...]) -> FactoredBelief:
        """The belief of ``ids``. Its factors passed ``FactoredBelief``'s
        checks when first built, so it is assembled without repeating them."""
        fb = object.__new__(FactoredBelief)
        object.__setattr__(
            fb, "per_relay", tuple(self.factor(i, s, m) for i, (s, m) in enumerate(ids))
        )
        return fb


def joint_belief(fb: FactoredBelief) -> np.ndarray:
    """Outer product of the factors, flattened in row-major relay order.

    Built as a chain of flattened outer products, so each entry is the single
    product of its factors, bitwise the ``np.kron`` chain."""
    size = math.prod(b.shape[0] for b in fb.per_relay)
    if size > JOINT_CAP:
        raise CapExceededError(
            f"joint belief would have {size} entries (cap {JOINT_CAP}); "
            "keep the factored form instead"
        )
    out = np.ones(1)
    for b in fb.per_relay:
        out = np.multiply.outer(out, b).ravel()
    return out


class Support:
    """A belief's support, the joint states where every factor is positive,
    and its probabilities there: per relay, the regions of positive
    probability (``index``) and their probabilities (``weights``), and the
    joint support's ascending row-major flat indices (``flat``, None when
    the support is the whole space), which gather a joint-space vector's
    entries there with one ``take``. ``probs`` of every relay is bitwise
    ``joint_belief(fb)`` at them, built without the rest."""

    def __init__(self, fb: FactoredBelief):
        self.index = [np.flatnonzero(b) for b in fb.per_relay]
        self.weights = [b[s] for b, s in zip(fb.per_relay, self.index)]
        flat = np.zeros(1, dtype=np.intp)
        for b, s in zip(fb.per_relay, self.index):
            flat = np.add.outer(flat * b.shape[0], s).ravel()
        self.flat = None if len(flat) == math.prod(b.shape[0] for b in fb.per_relay) else flat

    def probs(self, axes) -> np.ndarray:
        """The probabilities of the observation branches of the relays
        ``axes`` that have positive probability, in row-major order."""
        p = np.ones(1)
        for ax in axes:
            p = np.multiply.outer(p, self.weights[ax]).ravel()
        return p


@dataclass
class BeliefSet:
    """A finite set of factored beliefs used by the point-based solvers."""

    points: list[FactoredBelief]
    h: int
    source_state: JointState
    per_relay_families: list[list[np.ndarray]] = field(default_factory=list)

    def __post_init__(self):
        if not self.points:
            raise ValidationError("belief set must be non-empty")

    def __len__(self):
        return len(self.points)


def _relay_family(chain: MarkovChain, s0: int, h: int) -> list[tuple[int, np.ndarray]]:
    """Attainable-belief family for one relay: (earliest epoch, vector) pairs.

    These are ``attainable_beliefs(chain, s0, h)``: the initial one-hot plus
    the rows ``P^n(S_j, :)`` for every power ``1 <= n <= h`` and every state
    observable from the start state (an observed relay's next belief is
    always such a row). Powers run to ``h`` for all observable states so
    that any deeper row stays within ``2 * d(h)`` of the family, which is
    what the coverage bound guarantees. Each is tagged with the earliest
    epoch it can occur at (the row of state ``s`` in power ``n`` at ``1 +
    steps(s) + n``), ordered by (epoch, region) and deduplicated in L1.
    """
    steps = _observable_steps(chain, s0)
    observable = np.flatnonzero(steps >= 0).tolist()
    tags = [(0, s0)] + [(1 + steps[s] + n_pow, s) for n_pow in range(1, h + 1) for s in observable]
    family = sorted(zip(tags, attainable_beliefs(chain, s0, h)), key=lambda item: item[0])
    kept: list[tuple[int, np.ndarray]] = []
    rows = np.empty((len(family), chain.size))  # the kept vectors, one distance vector per candidate
    for (epoch, _), vec in family:
        if (np.abs(rows[: len(kept)] - vec).sum(axis=1) > DEDUP_TOL).all():
            rows[len(kept)] = vec
            kept.append((epoch, vec))
    return kept


def _observable_steps(chain: MarkovChain, s0: int) -> np.ndarray:
    """Shortest transition count from ``s0`` to each state (-1: unreachable).

    The relay sits at ``s0`` during epoch 1, so a state with step count d is
    first observable at epoch 1 + d.
    """
    adjacency = chain.matrix > 0
    steps = np.full(chain.size, -1, dtype=int)
    steps[s0] = 0
    frontier = [s0]
    level = 0
    while frontier:
        level += 1
        nxt = []
        for s in frontier:
            for s2 in np.flatnonzero(adjacency[s]):
                if steps[s2] < 0:
                    steps[s2] = level
                    nxt.append(int(s2))
        frontier = nxt
    return steps


def build_h_belief_set(
    s0: JointState,
    h: int,
    chains: list[MarkovChain],
    cap: int = PRODUCT_CAP,
) -> BeliefSet:
    """Depth-h belief set anchored at a known start state.

    Joint points are Cartesian products of per-relay attainable-belief
    families (matrix-power rows up to depth ``h`` plus the initial one-hot),
    kept in order of earliest attainable epoch and truncated at ``cap``
    points so the earliest (most backup-relevant) beliefs survive. The
    initial one-hot belief is always the first point.
    """
    if h < 1:
        raise ValidationError(f"h must be >= 1, got {h}")
    if len(s0) != len(chains):
        raise ValidationError("initial state length must match the number of relays")
    families = [_relay_family(chain, s, h) for chain, s in zip(chains, s0)]

    total = math.prod(len(f) for f in families)
    if total > 10**12:
        raise CapExceededError(
            f"h-belief set would productize to {total} points; use a smaller h"
        )
    ordered = _smallest_products(families, min(cap, total))

    points = [
        FactoredBelief(tuple(families[i][j][1] for i, j in enumerate(idx)))
        for idx in ordered
    ]
    return BeliefSet(
        points=points,
        h=h,
        source_state=tuple(s0),
        per_relay_families=[[vec for _, vec in fam] for fam in families],
    )


def _smallest_products(
    families: list[list[tuple[int, np.ndarray]]], count: int
) -> list[tuple[int, ...]]:
    """Index tuples of the ``count`` lowest epoch-sum products, best-first.

    Each family is sorted by epoch, so successors of a popped tuple (one
    coordinate advanced) are the only candidates that can follow it.
    """
    import heapq

    start = (0,) * len(families)
    heap = [(sum(f[0][0] for f in families), start)]
    seen = {start}
    out: list[tuple[int, ...]] = []
    while heap and len(out) < count:
        score, idx = heapq.heappop(heap)
        out.append(idx)
        for i, fam in enumerate(families):
            j = idx[i] + 1
            if j < len(fam):
                nxt = idx[:i] + (j,) + idx[i + 1 :]
                if nxt not in seen:
                    seen.add(nxt)
                    heapq.heappush(heap, (score - fam[j - 1][0] + fam[j][0], nxt))
    return out


def density_bound(chains: list[MarkovChain], h: int) -> float:
    """Coverage guarantee of an h-belief set: ``2 * sum_i slem_i^h / pi_min_i``."""
    if h < 1:
        raise ValidationError(f"h must be >= 1, got {h}")
    total = 0.0
    for chain in chains:
        total += 2.0 * chain.slem**h / float(chain.stationary.min())
    return total


def attainable_beliefs(
    chain: MarkovChain, s0: int, n_max: int
) -> list[np.ndarray]:
    """Every belief one relay's filter can attain, up to power ``n_max``.

    These are the initial one-hot, its predictions, and the rows
    ``P^n(S_j, :)`` for ``n >= 1`` and every observable state (an observed
    relay's next belief is such a row); beyond ``n_max`` consecutive rows
    differ by a geometrically vanishing amount, so the truncation loses
    nothing measurable.
    """
    observable = np.flatnonzero(_observable_steps(chain, s0) >= 0)
    out = [np.eye(chain.size)[s0]]
    power = chain.matrix.copy()
    for _ in range(n_max):
        out.extend(power[s].copy() for s in observable)
        power = power @ chain.matrix
    return out


def empirical_density(belief_set: BeliefSet, chains: list[MarkovChain]) -> float:
    """Measured coverage of a belief set over the attainable-belief family.

    Distance between two factored beliefs is the sum of per-relay L1
    distances, the quantity the coverage bound controls. The probe family is
    the attainable beliefs (initial one-hot plus all matrix-power rows up to
    power ``h + 40``), subsampled to 10,000 by a generator seeded with 0 if
    it holds more. Used in validation only, never on the solver path.

    The distances are measured to the per-relay families
    (``per_relay_families``), not to the product points the set keeps, so a
    cap does not change the value: on a truncated set it describes the
    whole depth-h set and says nothing about the anchors kept.
    """
    sample_cap = 10_000
    rng = np.random.default_rng(0)

    worst = 0.0
    for i, chain in enumerate(chains):
        probes = attainable_beliefs(chain, belief_set.source_state[i], belief_set.h + 40)
        if len(probes) > sample_cap:
            idx = rng.choice(len(probes), size=sample_cap, replace=False)
            probes = [probes[j] for j in idx]
        family = np.array(belief_set.per_relay_families[i])
        probe_arr = np.array(probes)
        dists = np.abs(probe_arr[:, None, :] - family[None, :, :]).sum(axis=2).min(axis=1)
        worst += float(dists.max())
    return worst
