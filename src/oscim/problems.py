"""Max-cut instances, Ising/QUBO forms, and exact enumeration oracles.

Conventions used throughout the package:

* Spins are numpy arrays with entries in {-1, +1}.
* Ising energy:  H = -sum_{i<j} J_ij s_i s_j - sum_j h_j s_j + offset,
  each interacting pair counted once (J symmetric, zero diagonal).
* Max-cut maps to Ising couplings via J = -mu for an edge of weight mu,
  so the coupling matrix is the negated weighted adjacency matrix.
* QUBO variables x in {0,1} relate to spins through x = (1 + s) / 2.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

# 2^24 evaluations is the largest enumeration we allow.
MAX_BRUTE_FORCE_N = 24

_CHUNK_BITS = 16


def check_edge(edge, n: int, seen: set[tuple[int, int]]) -> tuple[int, int, float]:
    """One edge (u, v, w) of a graph on vertices 1..n, returned with u < v.

    Rejects self-loops, vertices outside 1..n, pairs already in ``seen``
    and non-finite weights; records the accepted pair in ``seen``.
    """
    u, v, w = int(edge[0]), int(edge[1]), float(edge[2])
    if u == v:
        raise ValueError(f"self-loop on vertex {u}")
    if not (1 <= u <= n and 1 <= v <= n):
        raise ValueError(f"edge ({u},{v}) outside vertex range 1..{n}")
    u, v = min(u, v), max(u, v)
    if (u, v) in seen:
        raise ValueError(f"duplicate edge ({u},{v})")
    if not np.isfinite(w):
        raise ValueError(f"edge ({u},{v}) has non-finite weight {w}")
    seen.add((u, v))
    return u, v, w


@dataclass(frozen=True)
class Graph:
    """Undirected edge-weighted graph with 1-indexed vertices 1..n.

    Edges are stored as (u, v, weight) with u < v; self-loops and duplicate
    pairs are rejected.
    """

    n: int
    edges: tuple[tuple[int, int, float], ...]

    def __post_init__(self):
        if self.n < 1:
            raise ValueError(f"vertex count must be >= 1, got {self.n}")
        seen: set[tuple[int, int]] = set()
        edges = tuple(check_edge(e, self.n, seen) for e in self.edges)
        object.__setattr__(self, "edges", edges)

    @property
    def total_weight(self) -> float:
        return float(sum(w for _, _, w in self.edges))

    def adjacency(self) -> np.ndarray:
        """Dense symmetric weight matrix (0-indexed)."""
        a = np.zeros((self.n, self.n))
        for u, v, w in self.edges:
            a[u - 1, v - 1] = w
            a[v - 1, u - 1] = w
        return a


@dataclass(frozen=True)
class IsingProblem:
    """Couplings J (symmetric, zero diagonal), fields h, constant offset."""

    n: int
    J: np.ndarray
    h: np.ndarray
    offset: float = 0.0

    def __post_init__(self):
        J = np.array(self.J, dtype=float)
        h = np.array(self.h, dtype=float)
        if J.shape != (self.n, self.n):
            raise ValueError(f"J must be {self.n}x{self.n}, got {J.shape}")
        if h.shape != (self.n,):
            raise ValueError(f"h must have length {self.n}, got {h.shape}")
        if not (np.isfinite(J).all() and np.isfinite(h).all() and np.isfinite(self.offset)):
            raise ValueError("J, h, offset must be finite")
        if np.any(np.diag(J) != 0.0):
            raise ValueError("J must have zero diagonal")
        if not np.array_equal(J, J.T):
            raise ValueError("J must be symmetric")
        J.setflags(write=False)
        h.setflags(write=False)
        object.__setattr__(self, "J", J)
        object.__setattr__(self, "h", h)


@dataclass(frozen=True)
class Qubo:
    """Quadratic form over x in {0,1}^n: sum_{i<=j} Q_ij x_i x_j + offset.

    Q is stored upper-triangular; the diagonal carries the linear terms
    (x_i^2 = x_i for binary x).
    """

    n: int
    Q: np.ndarray
    offset: float = 0.0

    def __post_init__(self):
        Q = np.array(self.Q, dtype=float)
        if Q.shape != (self.n, self.n):
            raise ValueError(f"Q must be {self.n}x{self.n}, got {Q.shape}")
        if not (np.isfinite(Q).all() and np.isfinite(self.offset)):
            raise ValueError("Q and offset must be finite")
        if np.any(np.tril(Q, -1) != 0.0):
            raise ValueError("Q must be upper-triangular (zeros below the diagonal)")
        Q.setflags(write=False)
        object.__setattr__(self, "Q", Q)


def validate_spins(spins, n: int) -> np.ndarray:
    """Coerce to an int array of +-1 values of length n."""
    s = np.asarray(spins)
    if s.shape != (n,):
        raise ValueError(f"spin configuration must have length {n}, got shape {s.shape}")
    if not np.all(np.abs(s) == 1):
        raise ValueError("spins must be exactly -1 or +1")
    return s.astype(int)


def graph_to_ising(g: Graph) -> IsingProblem:
    """Map a max-cut instance to Ising couplings (J = -weight, h = 0)."""
    J = -g.adjacency()
    return IsingProblem(n=g.n, J=J, h=np.zeros(g.n), offset=0.0)


def energy(p: IsingProblem, spins) -> float:
    """Ising energy H = -sum_{i<j} J_ij s_i s_j - h.s + offset."""
    s = validate_spins(spins, p.n)
    pair_sum = 0.5 * float(s @ (p.J @ s))  # J symmetric, zero diagonal
    return -pair_sum - float(p.h @ s) + p.offset


def cut_value(g: Graph, spins) -> float:
    """Total weight of edges whose endpoints carry opposite spins."""
    s = validate_spins(spins, g.n)
    total = 0.0
    for u, v, w in g.edges:
        if s[u - 1] != s[v - 1]:
            total += w
    return total


def qubo_value(q: Qubo, x) -> float:
    """Evaluate the quadratic form for a binary assignment."""
    xv = np.asarray(x, dtype=float)
    if xv.shape != (q.n,):
        raise ValueError(f"assignment must have length {q.n}")
    return float(xv @ q.Q @ xv) + q.offset


def qubo_to_ising(q: Qubo) -> IsingProblem:
    """Exact affine conversion with x = (1 + s)/2.

    Energies agree for every assignment: energy(result, s) == qubo_value(q, x(s)).
    """
    n = q.n
    J = np.zeros((n, n))
    h = np.zeros(n)
    offset = q.offset
    diag = np.diag(q.Q)
    h -= diag / 2.0
    offset += float(diag.sum()) / 2.0
    upper = np.triu(q.Q, 1)
    for i in range(n):
        for j in range(i + 1, n):
            qij = upper[i, j]
            if qij == 0.0:
                continue
            J[i, j] -= qij / 4.0
            J[j, i] -= qij / 4.0
            h[i] -= qij / 4.0
            h[j] -= qij / 4.0
            offset += qij / 4.0
    return IsingProblem(n=n, J=J, h=h, offset=offset)


def ising_to_qubo(p: IsingProblem) -> Qubo:
    """Inverse conversion (s = 2x - 1); round-trips preserve energies exactly."""
    n = p.n
    Q = np.zeros((n, n))
    row_sums = p.J.sum(axis=1)  # sum over partners; diagonal is zero
    for i in range(n):
        Q[i, i] = 2.0 * row_sums[i] - 2.0 * p.h[i]
        for j in range(i + 1, n):
            Q[i, j] = -4.0 * p.J[i, j]
    tri_sum = 0.5 * float(p.J.sum())
    offset = p.offset - tri_sum + float(p.h.sum())
    return Qubo(n=n, Q=Q, offset=offset)


def _spin_chunks(n: int):
    """Yield spin blocks covering all 2^n configurations, in counting order.

    Row k of the whole sequence has spin i = +1 if bit i of k is 0 else -1,
    so row 0 is all +1.
    """
    total = 1 << n
    step = 1 << min(_CHUNK_BITS, n)
    bits = np.arange(n, dtype=np.uint32)
    for start in range(0, total, step):
        k = np.arange(start, min(start + step, total), dtype=np.uint32)
        bitvals = (k[:, None] >> bits[None, :]) & 1
        yield 1 - 2 * bitvals.astype(np.int8)


def _check_enumerable(n: int):
    if n > MAX_BRUTE_FORCE_N:
        raise ValueError(
            f"n={n} too large for exhaustive enumeration (limit {MAX_BRUTE_FORCE_N})"
        )


def brute_force_max_cut(g: Graph) -> tuple[float, set[tuple[int, ...]]]:
    """Exact max-cut by enumeration: (optimum, all maximizing spin configs).

    A cut is invariant under global spin flip, and a configuration and its
    flip sum the same edge terms in the same order, so only the half with
    the last spin +1 is enumerated; each maximizer's flip is added to the
    set, which is therefore closed under global spin flip.
    """
    _check_enumerable(g.n)
    best = -np.inf
    best_configs: set[tuple[int, ...]] = set()
    for half in _spin_chunks(g.n - 1):
        spins = np.hstack((half, np.ones((half.shape[0], 1), dtype=half.dtype)))
        cuts = np.zeros(spins.shape[0])
        for u, v, w in g.edges:
            cuts += np.where(spins[:, u - 1] != spins[:, v - 1], w, 0.0)
        m = cuts.max() if cuts.size else 0.0
        if m > best:
            best = m
            best_configs = set()
        if m == best:
            for k in np.nonzero(cuts == best)[0]:
                cfg = tuple(int(x) for x in spins[k])
                best_configs.add(cfg)
                best_configs.add(tuple(-x for x in cfg))
    return float(best), best_configs


def brute_force_ground_states(p: IsingProblem) -> tuple[float, set[tuple[int, ...]]]:
    """Exact minimum of the Ising energy and every attaining configuration."""
    _check_enumerable(p.n)
    best = np.inf
    best_configs: set[tuple[int, ...]] = set()
    for spins in _spin_chunks(p.n):
        sf = spins.astype(float)
        pair = 0.5 * np.einsum("ki,ij,kj->k", sf, p.J, sf)
        energies = -pair - sf @ p.h + p.offset
        m = energies.min()
        if m < best:
            best = m
            best_configs = set()
        if m == best:
            for k in np.nonzero(energies == best)[0]:
                best_configs.add(tuple(int(x) for x in spins[k]))
    return float(best), best_configs
