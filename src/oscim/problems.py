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

from dataclasses import dataclass

import numpy as np

# 2^24 evaluations is the largest enumeration we allow.
MAX_BRUTE_FORCE_N = 24

# one tile of _screened_spins holds at most 2^_TILE_BITS q entries
_TILE_BITS = 16


def _numeric(x, what: str) -> np.ndarray:
    """x as an array of ints or floats; bool, str and object input raise ValueError.

    numpy infers a number dtype for a list that mixes bools with numbers, so
    list and tuple input is also searched for bool entries; array input is
    judged by its dtype alone.
    """
    a = np.asarray(x)
    if a.dtype.kind not in "iuf":
        raise ValueError(f"{what} must be numeric, got {a.dtype.name} input")
    if isinstance(x, (list, tuple)) and any(
            isinstance(e, (bool, np.bool_)) for e in np.asarray(x, dtype=object).flat):
        raise ValueError(f"{what} must be numeric, got bool entries")
    return a


def _whole_number(x, what: str) -> int:
    """x as an int; one whole number only (1.0 passes; 1.9, True and "1" do not)."""
    a = _numeric(x, what)
    if a.ndim or not float(a).is_integer():  # False on NaN and +-inf too
        raise ValueError(f"{what} must be a whole number, got {x}")
    return int(a)


def check_edge(edge, n: int, seen: set[tuple[int, int]]) -> tuple[int, int, float]:
    """One edge (u, v, w) of a graph on vertices 1..n, returned with u < v.

    Rejects vertex ids that are not whole numbers, self-loops, vertices
    outside 1..n, pairs already in ``seen`` and non-finite weights; records
    the accepted pair in ``seen``.
    """
    u, v = _whole_number(edge[0], "vertex id"), _whole_number(edge[1], "vertex id")
    w = float(_numeric(edge[2], "edge weight"))
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


def freeze_array(obj, name: str, shape: tuple[int, ...], dtype=float) -> np.ndarray:
    """Set a frozen dataclass field to a read-only dtype copy of the given shape.

    The field takes finite numbers only (``_numeric``; NaN and +-inf raise).
    An int field takes whole numbers only (1.0 passes, 1.7 does not), since
    the conversion would truncate them.
    """
    value = _numeric(getattr(obj, name), name)
    ok, rule = np.isfinite(value), "be finite"
    if dtype is int:
        ok, rule = ok & (value == np.trunc(value)), "hold whole numbers"
    if not ok.all():
        raise ValueError(f"{name} must {rule}, got {float(value[~ok][0])}")
    a = np.array(value, dtype=dtype)
    if a.shape != shape:
        raise ValueError(f"{name} must have shape {shape}, got {a.shape}")
    a.setflags(write=False)
    object.__setattr__(obj, name, a)
    return a


@dataclass(frozen=True)
class Graph:
    """Undirected edge-weighted graph with 1-indexed vertices 1..n.

    Edges are stored as (u, v, weight) with u < v; self-loops, duplicate
    pairs and weights whose |values| sum to more than the largest float are
    rejected.
    """

    n: int
    edges: tuple[tuple[int, int, float], ...]

    def __post_init__(self):
        n = _whole_number(self.n, "vertex count")
        if n < 1:
            raise ValueError(f"vertex count must be >= 1, got {n}")
        seen: set[tuple[int, int]] = set()
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "edges", tuple(check_edge(e, n, seen) for e in self.edges))
        if not np.isfinite(sum(abs(w) for _, _, w in self.edges)):
            raise ValueError("the total |weight| of the edges must be finite")

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
    """Couplings J (n x n, symmetric, zero diagonal), fields h (n,), constant offset."""

    J: np.ndarray
    h: np.ndarray
    offset: float = 0.0

    def __post_init__(self):
        J = freeze_array(self, "J", (len(self.J),) * 2)
        freeze_array(self, "h", J.shape[:1])
        object.__setattr__(self, "offset", float(freeze_array(self, "offset", ())))
        if np.any(np.diag(J) != 0.0):
            raise ValueError("J must have zero diagonal")
        if not np.array_equal(J, J.T):
            raise ValueError("J must be symmetric")

    @property
    def n(self) -> int:
        return len(self.J)


@dataclass(frozen=True)
class Qubo:
    """Quadratic form over x in {0,1}^n: sum_{i<=j} Q_ij x_i x_j + offset.

    Q is stored upper-triangular; the diagonal carries the linear terms
    (x_i^2 = x_i for binary x).
    """

    Q: np.ndarray
    offset: float = 0.0

    def __post_init__(self):
        Q = freeze_array(self, "Q", (len(self.Q),) * 2)
        object.__setattr__(self, "offset", float(freeze_array(self, "offset", ())))
        if np.any(np.tril(Q, -1) != 0.0):
            raise ValueError("Q must be upper-triangular (zeros below the diagonal)")

    @property
    def n(self) -> int:
        return len(self.Q)


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
    return IsingProblem(J=-g.adjacency(), h=np.zeros(g.n))


def energies(p: IsingProblem, spins) -> np.ndarray:
    """Ising energy of each row of a (K, n) array of +-1 spins (not validated).

    Each row subtracts its pair terms J_ij s_i s_j (i < j, row-major), then
    its field terms h_j s_j, one at a time, and adds the offset last, so
    every caller scores a configuration bit for bit alike: one
    ``np.subtract.reduce``, which numpy does not pair-sum, per row block.
    """
    s = np.asarray(spins)
    i, j = np.nonzero(np.triu(p.J, 1))
    f = np.flatnonzero(p.h)
    coef = np.concatenate((p.J[i, j], p.h[f]))
    e = [np.subtract.reduce(coef * np.hstack((b[:, i] * b[:, j], b[:, f])), axis=1, initial=0.0)
         for b in np.array_split(s, (len(s) * len(coef) >> _TILE_BITS) + 1)]
    return np.concatenate(e) + p.offset


def energy(p: IsingProblem, spins) -> float:
    """Ising energy H = -sum_{i<j} J_ij s_i s_j - h.s + offset."""
    return float(energies(p, validate_spins(spins, p.n)[None, :])[0])


def cut_values(g: Graph, spins) -> np.ndarray:
    """Cut weight of each row of a (K, n) array of +-1 spins (not validated).

    Each row sums the weights of its cut edges in edge order, so every
    caller scores a configuration bit for bit alike.
    """
    s = np.asarray(spins)
    cuts = np.zeros(s.shape[0])
    for u, v, w in g.edges:
        cuts += np.where(s[:, u - 1] != s[:, v - 1], w, 0.0)
    return cuts


def cut_value(g: Graph, spins) -> float:
    """Total weight of edges whose endpoints carry opposite spins."""
    return float(cut_values(g, validate_spins(spins, g.n)[None, :])[0])


def qubo_value(q: Qubo, x) -> float:
    """Evaluate the quadratic form for a binary assignment."""
    xv = np.asarray(x, dtype=float)
    if xv.shape != (q.n,):
        raise ValueError(f"assignment must have length {q.n}")
    if not np.isin(xv, (0.0, 1.0)).all():
        raise ValueError("assignment entries must be 0 or 1")
    return float(xv @ q.Q @ xv) + q.offset


def qubo_to_ising(q: Qubo) -> IsingProblem:
    """Exact affine conversion with x = (1 + s)/2.

    Energies agree for every assignment: energy(result, s) == qubo_value(q, x(s)).
    h_i subtracts its pair terms Q_ij/4 in column order and the offset adds them
    in row-major order, so the bits equal those of a double loop over i < j.
    """
    diag = np.diag(q.Q)
    upper = np.triu(q.Q, 1)
    quarter = (upper + upper.T) / 4.0
    h = np.subtract.reduce(np.column_stack([0.0 - diag / 2.0, quarter]), axis=1)
    terms = np.concatenate([[q.offset + float(diag.sum()) / 2.0], upper[upper != 0.0] / 4.0])
    return IsingProblem(J=0.0 - quarter, h=h, offset=float(np.add.accumulate(terms)[-1]))


def ising_to_qubo(p: IsingProblem) -> Qubo:
    """Inverse conversion (s = 2x - 1); round-trips preserve energies exactly."""
    Q = np.triu(-4.0 * p.J, 1)
    np.fill_diagonal(Q, 2.0 * p.J.sum(axis=1) - 2.0 * p.h)  # J's diagonal is zero
    tri_sum = 0.5 * float(p.J.sum())
    return Qubo(Q=Q, offset=p.offset - tri_sum + float(p.h.sum()))


def _spin_rows(start: int, stop: int, n: int) -> np.ndarray:
    """Rows start..stop-1 of the counting order over n spins, as int8.

    Row k has spin i = +1 if bit i of k is 0 else -1, so row 0 is all +1.
    """
    k = np.arange(start, stop, dtype=np.uint32)
    bitvals = (k[:, None] >> np.arange(n, dtype=np.uint32)[None, :]) & 1
    return 1 - 2 * bitvals.astype(np.int8)


def _check_enumerable(n: int):
    if n > MAX_BRUTE_FORCE_N:
        raise ValueError(
            f"n={n} too large for exhaustive enumeration (limit {MAX_BRUTE_FORCE_N})"
        )


def _screened_spins(A: np.ndarray, margin: float) -> np.ndarray:
    """Configurations with the last spin +1 whose q = s^T A s may be minimal.

    A is a symmetric (n, n) form.  The n-1 free spins split into a low block
    of a = n // 2 spins and a high block of the rest plus the fixed last
    spin (Horowitz and Sahni's split enumeration), so q = high_q[h] +
    low_q[l] + l.C[:, h] with C = 2 A_lh h^T.  A tile of at most
    2^_TILE_BITS entries of q is one matrix product, whose two extra columns
    carry high_q and low_q.  The screen keeps each entry within ``margin``
    of the running minimum, and at the end drops those above the final
    minimum plus ``margin``; the running minimum never falls below the final
    one, so no tile drops an entry that the final test keeps.

    Each of the three parts sums at most n + 1 products of a spin and an
    entry of A, and adding them rounds twice more, so the screen's q is off
    by at most about (n + 3) eps/2 sum|A|.  A caller's ``margin`` covers
    twice that plus the rounding of its own scores.
    """
    n = len(A)
    a = n // 2
    b = n - 1 - a
    low = _spin_rows(0, 1 << a, a)
    high = np.hstack((_spin_rows(0, 1 << b, b), np.ones((1 << b, 1), np.int8)))
    low_f, high_f = low.astype(float), high.astype(float)
    low_q = np.einsum("ki,ki->k", low_f @ A[:a, :a], low_f)
    high_q = np.einsum("ki,ki->k", high_f @ A[a:, a:], high_f)
    # q[h, l] = high_q[h] + low_q[l] + l.C[:, h] as one product per tile
    lows = np.vstack((low_f.T, low_q, np.ones(1 << a)))
    highs = np.column_stack((high_f @ (2.0 * A[a:, :a]), np.ones(1 << b), high_q))
    rows = max(1, (1 << _TILE_BITS) >> a)
    floor = np.inf
    kept = []  # (q, flat index h * 2^a + l) of each tile's survivors
    for j in range(0, 1 << b, rows):
        q = (highs[j:j + rows] @ lows).ravel()
        floor = min(floor, q.min())
        # a non-finite screen keeps its entries (the comparison is False)
        idx = np.flatnonzero(~(q > floor + margin))
        kept.append((q[idx], idx + (j << a)))
    q, idx = (np.concatenate(parts) for parts in zip(*kept))
    hi, li = np.divmod(idx[~(q > floor + margin)], 1 << a)
    return np.hstack((low[li], high[hi]))


def _optimum(spins: np.ndarray, scores: np.ndarray, best, signs) -> tuple[float, set]:
    """(best, the rows of spins that score best, each times every sign)."""
    top = spins[scores == best]
    configs: set[tuple[int, ...]] = set()
    for part in np.array_split(top, len(top) // 4096 + 1):  # bounds tolist()'s lists
        for sign in signs:
            configs.update(map(tuple, (sign * part).tolist()))
    return float(best), configs


def brute_force_max_cut(g: Graph) -> tuple[float, set[tuple[int, ...]]]:
    """Exact max-cut by enumeration: (optimum, all maximizing spin configs).

    A cut is invariant under global spin flip, and a configuration and its
    flip sum the same edge terms in the same order, so only the half with
    the last spin +1 is enumerated; each maximizer's flip is added to the
    set, which is therefore closed under global spin flip.  Only the
    configurations that survive ``_screened_spins`` on the weighted
    adjacency A are scored by the edge-order sum, which alone decides the
    optimum and the maximizers.

    Why the margin is safe: since cut = (W - q/2)/2, the screen ranks by q.
    The edge-order sum adds m weights, so a cut is off by at most about
    m eps/2 sum|w| = m eps/4 sum|A|, and q = 2W - 4 cut turns the errors of
    two cuts into 2m eps sum|A|.  So the q of an edge-order maximizer lies
    within (2m + n + 3) eps sum|A| of the screen's minimum, well inside
    8 (n + m) eps sum|A|.
    """
    _check_enumerable(g.n)
    A = g.adjacency()
    # weights near the float limit overflow the margin or the screen; a
    # non-finite screen keeps every entry, and the edge-order sum decides
    with np.errstate(over="ignore", invalid="ignore"):
        margin = 8.0 * (g.n + len(g.edges)) * np.finfo(float).eps * float(np.abs(A).sum())
        spins = _screened_spins(A, margin)
    cuts = cut_values(g, spins)
    return _optimum(spins, cuts, cuts.max(), (1, -1))


def brute_force_ground_states(p: IsingProblem) -> tuple[float, set[tuple[int, ...]]]:
    """Exact minimum of the Ising energy and every attaining configuration.

    The screen runs on n + 1 spins, the last a field spin fixed at +1:
    A = -[[J, h], [h^T, 0]] gives q = s^T A s = 2(H - offset), so each
    configuration of the n real spins is enumerated once.  ``energies``
    scores the survivors and alone decides the answer, so ``energy`` of
    every returned state equals the returned minimum.

    Why the margin is safe: ``energies`` adds m <= n(n + 1)/2 exact terms
    whose magnitudes sum to sum|A|/2, then the offset, so an energy is off
    by at most about m eps/4 sum|A| + eps/2 |offset|; in q = 2(H - offset)
    two such errors make m eps sum|A| + 2 eps |offset|.  So the q of a
    scored minimizer lies within (m + n + 4) eps sum|A| + 2 eps |offset| of
    the screen's minimum, well inside 8 eps ((n + 1)^2 sum|A| + |offset|).
    A large offset can round distinct energies to one float, and each of
    them is then a ground state.
    """
    _check_enumerable(p.n)
    A = -np.block([[p.J, p.h[:, None]], [p.h[None, :], np.zeros((1, 1))]])
    eps = np.finfo(float).eps
    with np.errstate(over="ignore", invalid="ignore"):  # as in brute_force_max_cut
        margin = 8.0 * eps * ((p.n + 1) ** 2 * float(np.abs(A).sum()) + abs(p.offset))
        spins = _screened_spins(A, margin)[:, :-1]
    e = energies(p, spins)
    return _optimum(spins, e, e.min(), (1,))
