"""Problem core: mappings, energies, conversions, enumeration oracles."""

import numpy as np
import pytest

from oscim.problems import (
    Graph,
    IsingProblem,
    Qubo,
    brute_force_ground_states,
    brute_force_max_cut,
    cut_value,
    energy,
    graph_to_ising,
    ising_to_qubo,
    qubo_to_ising,
    qubo_value,
)

TRIANGLE = Graph(n=3, edges=((1, 2, 1.0), (2, 3, 1.0), (1, 3, 1.0)))


def random_graph(n, rng, p=0.5, dyadic=True):
    """Random weighted graph; dyadic weights keep float sums exact."""
    edges = []
    for u in range(1, n + 1):
        for v in range(u + 1, n + 1):
            if rng.random() < p:
                w = rng.integers(1, 9) / 4.0 if dyadic else rng.uniform(0.1, 2.0)
                edges.append((u, v, float(w)))
    return Graph(n=n, edges=tuple(edges))


def all_spin_configs(n):
    for mask in range(1 << n):
        yield np.array([1 if not (mask >> i) & 1 else -1 for i in range(n)])


class TestGraph:
    def test_rejects_self_loop(self):
        with pytest.raises(ValueError, match="self-loop"):
            Graph(n=2, edges=((1, 1, 1.0),))

    def test_rejects_duplicate(self):
        with pytest.raises(ValueError, match="duplicate"):
            Graph(n=2, edges=((1, 2, 1.0), (2, 1, 0.5)))

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError, match="outside"):
            Graph(n=2, edges=((1, 3, 1.0),))

    def test_normalizes_edge_order(self):
        g = Graph(n=3, edges=((3, 1, 2.0),))
        assert g.edges == ((1, 3, 2.0),)


class TestGraphToIsing:
    def test_single_edge(self):
        g = Graph(n=2, edges=((1, 2, 1.0),))
        p = graph_to_ising(g)
        assert p.J[0, 1] == -1.0
        assert p.J[1, 0] == -1.0
        assert np.all(p.h == 0.0)
        assert p.offset == 0.0

    def test_empty_graph(self):
        p = graph_to_ising(Graph(n=3, edges=()))
        assert np.all(p.J == 0.0)

    def test_triangle_weight_two(self):
        g = Graph(n=3, edges=((1, 2, 2.0), (2, 3, 2.0), (1, 3, 2.0)))
        p = graph_to_ising(g)
        off_diag = p.J[np.triu_indices(3, 1)]
        assert np.all(off_diag == -2.0)


class TestEnergy:
    def test_aligned_pair(self):
        p = IsingProblem(n=2, J=[[0, -1], [-1, 0]], h=[0, 0])
        assert energy(p, [1, 1]) == 1.0

    def test_antialigned_pair(self):
        p = IsingProblem(n=2, J=[[0, -1], [-1, 0]], h=[0, 0])
        assert energy(p, [1, -1]) == -1.0

    def test_triangle_ground_state(self):
        p = graph_to_ising(TRIANGLE)
        assert energy(p, [1, 1, -1]) == -1.0
        # exhaustive check that -1 is the minimum over all 8 configs
        assert min(energy(p, s) for s in all_spin_configs(3)) == -1.0

    def test_field_term(self):
        p = IsingProblem(n=2, J=np.zeros((2, 2)), h=[1.0, 0.0])
        assert energy(p, [1, 1]) == -1.0
        assert energy(p, [-1, 1]) == 1.0

    def test_dimension_mismatch(self):
        p = IsingProblem(n=2, J=np.zeros((2, 2)), h=np.zeros(2))
        with pytest.raises(ValueError):
            energy(p, [1, 1, 1])


class TestCutValue:
    def test_single_edge_cut(self):
        g = Graph(n=2, edges=((1, 2, 1.0),))
        assert cut_value(g, [1, -1]) == 1.0

    def test_uniform_spins_cut_nothing(self):
        assert cut_value(TRIANGLE, [1, 1, 1]) == 0.0

    def test_triangle_maximum(self):
        assert cut_value(TRIANGLE, [1, 1, -1]) == 2.0
        assert max(cut_value(TRIANGLE, s) for s in all_spin_configs(3)) == 2.0


class TestEnergyCutIdentity:
    def test_identity_on_random_graphs(self):
        # H = total_weight - 2*cut for J = -mu, h = 0
        rng = np.random.default_rng(7)
        for _ in range(25):
            n = int(rng.integers(2, 9))
            g = random_graph(n, rng, dyadic=False)
            p = graph_to_ising(g)
            for s in all_spin_configs(n):
                assert energy(p, s) == pytest.approx(
                    g.total_weight - 2.0 * cut_value(g, s), abs=1e-12
                )

    def test_global_flip_symmetry(self):
        rng = np.random.default_rng(8)
        g = random_graph(6, rng, dyadic=False)
        p = graph_to_ising(g)
        for s in all_spin_configs(6):
            assert energy(p, s) == pytest.approx(energy(p, -s), abs=1e-12)


class TestBruteForce:
    def test_single_edge(self):
        g = Graph(n=2, edges=((1, 2, 1.0),))
        opt, configs = brute_force_max_cut(g)
        assert opt == 1.0
        assert configs == {(1, -1), (-1, 1)}

    def test_triangle(self):
        opt, configs = brute_force_max_cut(TRIANGLE)
        assert opt == 2.0
        assert len(configs) == 6

    def test_k4(self):
        g = Graph(n=4, edges=tuple(
            (u, v, 1.0) for u in range(1, 5) for v in range(u + 1, 5)
        ))
        opt, _ = brute_force_max_cut(g)
        assert opt == 4.0

    def test_closed_under_flip(self):
        rng = np.random.default_rng(3)
        g = random_graph(7, rng)
        _, configs = brute_force_max_cut(g)
        for cfg in configs:
            assert tuple(-x for x in cfg) in configs

    def test_size_limit(self):
        with pytest.raises(ValueError, match="too large"):
            brute_force_max_cut(Graph(n=25, edges=()))

    @staticmethod
    def full_enumeration(g):
        """Every one of the 2^n configurations, edges summed in stored order."""
        best, configs = -np.inf, set()
        for s in all_spin_configs(g.n):
            cut = sum(w for u, v, w in g.edges if s[u - 1] != s[v - 1])
            if cut > best:
                best, configs = cut, set()
            if cut == best:
                configs.add(tuple(int(x) for x in s))
        return float(best), configs

    @pytest.mark.parametrize("seed", range(6))
    def test_half_enumeration_equals_full(self, seed):
        rng = np.random.default_rng(seed)
        for n in range(2, 11):
            g = random_graph(n, rng, p=0.6, dyadic=False)
            assert brute_force_max_cut(g) == self.full_enumeration(g)

    @pytest.mark.parametrize("n", [1, 4])
    def test_no_edges(self, n):
        g = Graph(n=n, edges=())
        opt, configs = brute_force_max_cut(g)
        assert (opt, configs) == self.full_enumeration(g)
        assert opt == 0.0 and len(configs) == 2 ** n


class TestGroundStates:
    def test_antiferromagnetic_pair(self):
        p = IsingProblem(n=2, J=[[0, -1], [-1, 0]], h=[0, 0])
        emin, configs = brute_force_ground_states(p)
        assert emin == -1.0
        assert configs == {(1, -1), (-1, 1)}

    def test_triangle_degeneracy(self):
        emin, configs = brute_force_ground_states(graph_to_ising(TRIANGLE))
        assert emin == -1.0
        assert len(configs) == 6

    def test_field_only(self):
        p = IsingProblem(n=2, J=np.zeros((2, 2)), h=[1.0, 0.0])
        emin, configs = brute_force_ground_states(p)
        assert emin == -1.0
        assert configs == {(1, 1), (1, -1)}

    def test_matches_max_cut(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            g = random_graph(int(rng.integers(2, 8)), rng)
            opt, cut_configs = brute_force_max_cut(g)
            _, ground_configs = brute_force_ground_states(graph_to_ising(g))
            assert cut_configs == ground_configs


class TestQuboConversions:
    def test_single_variable(self):
        q = Qubo(n=1, Q=[[1.0]])
        p = qubo_to_ising(q)
        assert p.h[0] == -0.5
        assert p.offset == 0.5
        assert energy(p, [-1]) == qubo_value(q, [0])
        assert energy(p, [1]) == qubo_value(q, [1])

    def test_zero_problem(self):
        p = qubo_to_ising(Qubo(n=3, Q=np.zeros((3, 3))))
        assert np.all(p.J == 0) and np.all(p.h == 0) and p.offset == 0
        q = ising_to_qubo(IsingProblem(n=2, J=np.zeros((2, 2)), h=np.zeros(2)))
        assert np.all(q.Q == 0) and q.offset == 0

    @pytest.mark.parametrize("seed", range(5))
    def test_qubo_to_ising_energy_equivalence(self, seed):
        rng = np.random.default_rng(seed)
        n = 4
        Q = np.triu(rng.uniform(-2, 2, (n, n)))
        q = Qubo(n=n, Q=Q, offset=float(rng.uniform(-1, 1)))
        p = qubo_to_ising(q)
        for s in all_spin_configs(n):
            x = (1 + s) / 2
            assert energy(p, s) == pytest.approx(qubo_value(q, x), abs=1e-12)

    @pytest.mark.parametrize("seed", range(5))
    def test_round_trip_preserves_energies(self, seed):
        rng = np.random.default_rng(100 + seed)
        n = 4
        J = rng.uniform(-1, 1, (n, n))
        J = (J + J.T) / 2
        np.fill_diagonal(J, 0.0)
        p = IsingProblem(n=n, J=J, h=rng.uniform(-1, 1, n), offset=0.3)
        p2 = qubo_to_ising(ising_to_qubo(p))
        for s in all_spin_configs(n):
            assert energy(p2, s) == pytest.approx(energy(p, s), abs=1e-12)

    def test_recovers_linear_objective(self):
        q0 = Qubo(n=1, Q=[[1.0]])
        q1 = ising_to_qubo(qubo_to_ising(q0))
        assert q1.Q[0, 0] == pytest.approx(1.0)
        assert q1.offset == pytest.approx(0.0)

    def test_rejects_lower_triangle(self):
        with pytest.raises(ValueError, match="upper-triangular"):
            Qubo(n=2, Q=[[1.0, 0.0], [0.5, 1.0]])
