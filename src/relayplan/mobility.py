"""Per-relay Markov location chains: construction and spectral analysis.

Grid chains are Kronecker products of two independent axis chains, so the
stay-put probability at interior cells is exactly ``eps_fix``. Boundaries do
not wrap: the probability mass of an out-of-grid move folds back into the
stay probability.
"""

from __future__ import annotations

import functools

import numpy as np

from .errors import SpectralError, ValidationError
from .model import ScenarioConfig

_ROW_TOL = 1e-9


class MarkovChain:
    """A row-stochastic transition matrix with cached spectral metadata."""

    def __init__(self, matrix):
        matrix = np.asarray(matrix, dtype=float)
        if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
            raise ValidationError(f"transition matrix must be square, got {matrix.shape}")
        if np.any(matrix < -_ROW_TOL) or np.any(matrix > 1 + _ROW_TOL):
            raise ValidationError("transition probabilities must lie in [0, 1]")
        rows = matrix.sum(axis=1)
        if np.any(np.abs(rows - 1.0) > _ROW_TOL):
            raise ValidationError(f"rows must sum to 1, got sums {rows}")
        self.matrix = matrix
        self.matrix.setflags(write=False)

    @property
    def size(self) -> int:
        return self.matrix.shape[0]

    @functools.cached_property
    def moduli(self) -> np.ndarray:
        """The eigenvalue moduli of the matrix, descending."""
        return np.sort(np.abs(np.linalg.eigvals(self.matrix)))[::-1]

    def _check_ergodic(self) -> None:
        if self.size > 1 and self.moduli[1] >= 1.0 - _ROW_TOL:
            raise SpectralError(
                "chain has no unique stationary distribution "
                f"(subdominant eigenvalue modulus {self.moduli[1]:.12f})"
            )

    @functools.cached_property
    def stationary(self) -> np.ndarray:
        return stationary_distribution(self)

    @functools.cached_property
    def slem(self) -> float:
        return slem(self)

    def power(self, n: int) -> np.ndarray:
        return np.linalg.matrix_power(self.matrix, n)

    def __repr__(self):
        return f"MarkovChain(size={self.size})"


def build_axis_chain(n_states: int, eps_fix: float) -> MarkovChain:
    """One-dimensional birth/death chain for a single grid axis.

    Interior rows stay with probability ``sqrt(eps_fix)`` and move to each
    neighbour with probability ``(1 - sqrt(eps_fix)) / 2``; at the two edges
    the out-of-grid move's mass is added to the stay probability.
    """
    if n_states < 1:
        raise ValidationError(f"n_states must be >= 1, got {n_states}")
    if not 0.0 <= eps_fix <= 1.0:
        raise ValidationError(f"eps_fix must be in [0, 1], got {eps_fix}")
    stay = np.sqrt(eps_fix)
    move = 0.5 * (1.0 - stay)
    m = np.zeros((n_states, n_states))
    for i in range(n_states):
        m[i, i] = stay
        for j in (i - 1, i + 1):
            if 0 <= j < n_states:
                m[i, j] = move
            else:
                m[i, i] += move
    return MarkovChain(m)


def build_grid_chain(s_x: int, s_y: int, eps_fix: float) -> MarkovChain:
    """Product chain over the full grid; region index = (x-1)*S_y + (y-1)."""
    px = build_axis_chain(s_x, eps_fix)
    py = build_axis_chain(s_y, eps_fix)
    return MarkovChain(np.kron(px.matrix, py.matrix))


def apply_speed(chain: MarkovChain, v: int) -> MarkovChain:
    """Model a relay moving v region-steps per epoch as the chain's v-th power."""
    if not (isinstance(v, int) and v >= 1):
        raise ValidationError(f"speed must be an integer >= 1, got {v}")
    if v == 1:
        return chain
    return MarkovChain(chain.power(v))


def chains_for_scenario(scenario: ScenarioConfig) -> list[MarkovChain]:
    """One location chain per relay, with its speed exponent applied."""
    out = []
    for spec in scenario.relays:
        base = build_grid_chain(scenario.grid_x, scenario.grid_y, spec.eps_fix)
        out.append(apply_speed(base, spec.speed))
    return out


def stationary_distribution(chain: MarkovChain) -> np.ndarray:
    """Unique stationary distribution, by power iteration with step doubling.

    Raises SpectralError for reducible or periodic chains (detected through
    the subdominant eigenvalue modulus).
    """
    chain._check_ergodic()
    n = chain.size
    if n == 1:
        return np.ones(1)
    x = np.full(n, 1.0 / n)
    m = chain.matrix
    for _ in range(80):
        x_next = x @ m
        if np.abs(x_next - x).sum() < 1e-12:
            x = x_next
            break
        x = x_next
        m = m @ m
    pi = x / x.sum()
    if np.abs(pi @ chain.matrix - pi).sum() > 1e-11:
        raise SpectralError("power iteration failed to converge to a stationary distribution")
    return pi


def slem(chain: MarkovChain) -> float:
    """Second-largest eigenvalue modulus; 0 for a one-state chain.

    Controls the mixing speed and therefore how large a reachable-belief
    horizon is needed for a given coverage target.
    """
    chain._check_ergodic()
    return 0.0 if chain.size == 1 else float(chain.moduli[1])


def distance_function(chain: MarkovChain, t: int) -> float:
    """Worst-start L1 distance between the t-step rows and the stationary law."""
    if t < 0:
        raise ValidationError(f"t must be >= 0, got {t}")
    pi = chain.stationary
    rows = chain.power(t)
    return float(np.abs(rows - pi[None, :]).sum(axis=1).max())


def belief_monotonicity_counterexamples(
    chain: MarkovChain, n_samples: int = 200, rng: np.random.Generator | None = None
) -> int:
    """Diagnostic sampler for the claim that one-step belief growth at a state
    persists through higher matrix powers.

    Returns the number of sampled (belief, state) pairs where
    ``(Pb)(s) >= b(s)`` but ``(P^2 b)(s) < (P b)(s)`` or the symmetric case.
    Logged by callers rather than asserted; the claim fails on chains with
    oscillating (negative-eigenvalue) convergence.
    """
    rng = rng or np.random.default_rng(0)
    p = chain.matrix.T  # column-action on belief vectors
    bad = 0
    for _ in range(n_samples):
        b = rng.dirichlet(np.ones(chain.size))
        b1 = p @ b
        b2 = p @ b1
        up = b1 >= b
        bad += int(np.any((b2 < b1 - 1e-12) & up) or np.any((b2 > b1 + 1e-12) & ~up))
    return bad
