"""Problem core: mappings, energies, conversions, enumeration oracles."""

import hashlib
import tracemalloc

import numpy as np
import pytest

from oscim.problems import (
    Graph,
    IsingProblem,
    Qubo,
    _TILE_BITS,
    brute_force_ground_states,
    brute_force_max_cut,
    cut_value,
    cut_values,
    energies,
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

    @pytest.mark.parametrize("edge, bad", [
        ((1.9, 3, 1.0), "1.9"), ((2, 3.7, 0.5), "3.7"), ((float("nan"), 2, 1.0), "nan"),
    ], ids=["1.9", "3.7", "nan"])
    def test_rejects_vertex_ids_that_are_not_whole(self, edge, bad):
        # int() would truncate 1.9 to vertex 1
        with pytest.raises(ValueError, match=f"vertex id must be a whole number, got {bad}"):
            Graph(n=3, edges=(edge,))

    def test_rejects_vertex_count_that_is_not_whole(self):
        with pytest.raises(ValueError, match="vertex count must be a whole number, got 2.5"):
            Graph(n=2.5, edges=())

    @pytest.mark.parametrize("n, edge, what", [
        ("3", (1, 2, 1.0), "vertex count"), (True, (1, 2, 1.0), "vertex count"),
        (3, ("1", 2, 1.0), "vertex id"), (3, (1, True, 1.0), "vertex id"),
        (3, (1, 2, "1.0"), "edge weight"), (3, (1, 2, None), "edge weight"),
    ], ids=["str-n", "bool-n", "str-id", "bool-id", "str-weight", "none-weight"])
    def test_rejects_input_that_is_not_a_number(self, n, edge, what):
        with pytest.raises(ValueError, match=f"{what} must be numeric"):
            Graph(n=n, edges=(edge,))

    def test_rejects_weights_past_the_float_limit(self):
        # each weight is finite, but their |sum| and the oracle's cut are not
        with pytest.raises(ValueError, match=r"total \|weight\| of the edges must be finite"):
            Graph(n=3, edges=((1, 2, 1e308), (2, 3, 1e308)))
        with pytest.raises(ValueError, match=r"total \|weight\|"):
            Graph(n=3, edges=((1, 2, 1e308), (2, 3, -1e308)))

    def test_accepts_whole_floats(self):
        g = Graph(n=3.0, edges=((1.0, 3.0, 2.0),))
        assert g == Graph(n=3, edges=((1, 3, 2.0),))
        assert type(g.n) is int and type(g.edges[0][0]) is int
        assert g.adjacency().shape == (3, 3)


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
        p = IsingProblem(J=[[0, -1], [-1, 0]], h=[0, 0])
        assert energy(p, [1, 1]) == 1.0

    def test_antialigned_pair(self):
        p = IsingProblem(J=[[0, -1], [-1, 0]], h=[0, 0])
        assert energy(p, [1, -1]) == -1.0

    def test_triangle_ground_state(self):
        p = graph_to_ising(TRIANGLE)
        assert energy(p, [1, 1, -1]) == -1.0
        # exhaustive check that -1 is the minimum over all 8 configs
        assert min(energy(p, s) for s in all_spin_configs(3)) == -1.0

    def test_field_term(self):
        p = IsingProblem(J=np.zeros((2, 2)), h=[1.0, 0.0])
        assert energy(p, [1, 1]) == -1.0
        assert energy(p, [-1, 1]) == 1.0

    def test_dimension_mismatch(self):
        p = IsingProblem(J=np.zeros((2, 2)), h=np.zeros(2))
        with pytest.raises(ValueError):
            energy(p, [1, 1, 1])

    def test_size_comes_from_j(self):
        assert IsingProblem(J=np.zeros((3, 3)), h=np.zeros(3)).n == 3
        with pytest.raises(ValueError, match=r"h must have shape \(3,\), got \(2,\)"):
            IsingProblem(J=np.zeros((3, 3)), h=np.zeros(2))
        with pytest.raises(ValueError, match=r"J must have shape \(2, 2\), got \(2, 3\)"):
            IsingProblem(J=np.zeros((2, 3)), h=np.zeros(2))

    @pytest.mark.parametrize("n", [1, 5, 12])
    def test_rows_match_the_per_term_loop(self, n):
        # the order the docstring states, one term at a time; random
        # non-dyadic entries make every rounding step show in the bits
        rng = np.random.default_rng(n)
        J = np.triu(rng.uniform(-1, 1, (n, n)) * (rng.random((n, n)) < 0.7), 1) / 3.0
        h = rng.uniform(-1, 1, n) * (rng.random(n) < 0.6) / 7.0
        p = IsingProblem(J=J + J.T, h=h, offset=float(rng.uniform(-5, 5)) / 3.0)
        s = (1 - 2 * (rng.random((3000, n)) < 0.5)).astype(np.int8)
        e = np.zeros(len(s))
        for i, j in zip(*np.nonzero(np.triu(p.J, 1))):
            e -= p.J[i, j] * (s[:, i] * s[:, j])
        for j in np.flatnonzero(p.h):
            e -= p.h[j] * s[:, j]
        assert np.array_equal(energies(p, s), e + p.offset)
        # one row at a time, numpy would pair-sum an add.reduce along the terms
        assert np.array_equal([energies(p, r[None])[0] for r in s[:200]], (e + p.offset)[:200])


class TestCutValue:
    def test_single_edge_cut(self):
        g = Graph(n=2, edges=((1, 2, 1.0),))
        assert cut_value(g, [1, -1]) == 1.0

    def test_uniform_spins_cut_nothing(self):
        assert cut_value(TRIANGLE, [1, 1, 1]) == 0.0

    def test_triangle_maximum(self):
        assert cut_value(TRIANGLE, [1, 1, -1]) == 2.0
        assert max(cut_value(TRIANGLE, s) for s in all_spin_configs(3)) == 2.0

    def test_cut_values_bitwise_equal_a_per_row_sum(self):
        # mixed-sign, non-dyadic weights expose any change of summation order
        rng = np.random.default_rng(29)
        for _ in range(40):
            n = int(rng.integers(2, 12))
            g = Graph(n=n, edges=tuple(
                (u, v, float(rng.uniform(-2.0, 2.0)))
                for u in range(1, n + 1) for v in range(u + 1, n + 1) if rng.random() < 0.6
            ))
            spins = rng.choice([-1, 1], size=(16, n))
            expected = []
            for row in spins:
                total = 0.0
                for u, v, w in g.edges:
                    if row[u - 1] != row[v - 1]:
                        total += w
                expected.append(total)
            assert cut_values(g, spins).tobytes() == np.array(expected).tobytes()
            assert [cut_value(g, row) for row in spins] == expected


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

    def test_weight_near_the_float_limit(self):
        # the margin and the screen overflow, which keeps every entry; the
        # suite turns numpy's overflow warnings into errors
        opt, configs = brute_force_max_cut(Graph(n=2, edges=((1, 2, 1e308),)))
        assert opt == 1e308
        assert configs == {(1, -1), (-1, 1)}

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

    @pytest.mark.parametrize("tile_bits", [_TILE_BITS, 3])
    @pytest.mark.parametrize("seed", range(4))
    def test_screen_keeps_near_ties(self, seed, tile_bits, monkeypatch):
        # decimal weights make many cuts tie up to rounding (0.1 + 0.2 != 0.3),
        # where the screen's sums and the edge-order sums can rank differently;
        # 3-bit tiles (one high row each here) make every graph span many tiles
        monkeypatch.setattr("oscim.problems._TILE_BITS", tile_bits)
        rng = np.random.default_rng(100 + seed)
        for n in range(3, 10):
            edges = tuple(
                (u, v, float(rng.choice([0.1, 0.2, 0.3, 0.4, 0.6, 0.7, 1.0])))
                for u in range(1, n + 1) for v in range(u + 1, n + 1) if rng.random() < 0.7
            )
            g = Graph(n=n, edges=edges)
            assert brute_force_max_cut(g) == self.full_enumeration(g)

    @pytest.mark.parametrize("tile_bits", [_TILE_BITS, 3])
    def test_floor_found_in_the_last_tile_drops_earlier_survivors(self, tile_bits,
                                                                  monkeypatch):
        # a star on the last vertex with weights 2^k: q falls with every step of
        # the counting order, so at tile_bits 3 each of the 16 tiles (one high
        # row each) keeps its own minimum, and only the last holds the maximizer
        monkeypatch.setattr("oscim.problems._TILE_BITS", tile_bits)
        scored = []

        def spy(g, spins):
            scored.append(len(spins))
            return cut_values(g, spins)

        monkeypatch.setattr("oscim.problems.cut_values", spy)
        n = 9
        g = Graph(n=n, edges=tuple((v, n, float(2 ** (v - 1))) for v in range(1, n)))
        best = (-1,) * (n - 1) + (1,)
        assert brute_force_max_cut(g) == (255.0, {best, tuple(-x for x in best)})
        assert brute_force_max_cut(g) == self.full_enumeration(g)
        assert scored == [1, 1]

    def test_memory_is_bounded_and_released(self):
        g = random_graph(20, np.random.default_rng(3))
        tracemalloc.start()
        try:
            brute_force_max_cut(g)
            retained, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 4_000_000
        assert retained < 100_000

    @pytest.mark.parametrize("n, weights, digest", [
        (21, (0.1, 0.2, 0.3), "53dcad73580b49ef159105c2755014f0fec388423fc9f4ae781ead70662e0ec6"),
        (22, (1.0,), "eebc61e95ee1a1d5efe8bdf329f814604e10650cd08f64655f84bbfd407de33b"),
        (23, (1.0,), "da9824ceb1113f66472be2be3920a45dff79d25829c4d536282fd868a6799764"),
        (24, (0.1, 0.2, 0.3), "109216404f40d646bcd669ea4bce447df470fd06aab9d2215c132c07a0c5bbc5"),
    ])
    def test_answers_pinned_at_the_enumeration_limit(self, n, weights, digest):
        # digests of (optimum, sorted maximizers) recorded from the chunked
        # enumeration the split one replaced; odd and even n - 1 give both split
        # shapes, and the decimal weights leave ties to rounding
        rng = np.random.default_rng(2400 + n)
        edges = tuple((u, v, float(rng.choice(weights)))
                      for u in range(1, n + 1) for v in range(u + 1, n + 1)
                      if rng.random() < 0.25)
        opt, configs = brute_force_max_cut(Graph(n=n, edges=edges))
        text = repr((opt, sorted(configs)))
        assert hashlib.sha256(text.encode()).hexdigest() == digest

    @pytest.mark.parametrize("n", [1, 4])
    def test_no_edges(self, n):
        g = Graph(n=n, edges=())
        opt, configs = brute_force_max_cut(g)
        assert (opt, configs) == self.full_enumeration(g)
        assert opt == 0.0 and len(configs) == 2 ** n


class TestGroundStates:
    def test_antiferromagnetic_pair(self):
        p = IsingProblem(J=[[0, -1], [-1, 0]], h=[0, 0])
        emin, configs = brute_force_ground_states(p)
        assert emin == -1.0
        assert configs == {(1, -1), (-1, 1)}

    def test_coupling_near_the_float_limit(self):
        p = IsingProblem(J=[[0, -1e308], [-1e308, 0]], h=[0, 0])
        emin, configs = brute_force_ground_states(p)
        assert emin == -1e308
        assert configs == {(1, -1), (-1, 1)}

    def test_triangle_degeneracy(self):
        emin, configs = brute_force_ground_states(graph_to_ising(TRIANGLE))
        assert emin == -1.0
        assert len(configs) == 6

    def test_field_only(self):
        p = IsingProblem(J=np.zeros((2, 2)), h=[1.0, 0.0])
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

    @staticmethod
    def full_enumeration(p):
        """energy() of every one of the 2^n configurations: (minimum, ground states)."""
        energies = {tuple(int(x) for x in s): energy(p, s) for s in all_spin_configs(p.n)}
        emin = min(energies.values())
        return emin, {cfg for cfg, e in energies.items() if e == emin}

    @pytest.mark.parametrize("tile_bits", [_TILE_BITS, 3])
    def test_equals_full_enumeration(self, tile_bits, monkeypatch):
        # 3-bit tiles make every problem above n = 3 span several tiles;
        # half-integer couplings and fields keep every energy exact
        monkeypatch.setattr("oscim.problems._TILE_BITS", tile_bits)
        rng = np.random.default_rng(12)
        for n in range(1, 8):
            J = np.triu(rng.integers(-2, 3, (n, n)) / 2.0, 1)
            p = IsingProblem(J=J + J.T, h=rng.integers(-2, 3, n) / 2.0)
            assert brute_force_ground_states(p) == self.full_enumeration(p)

    @pytest.mark.parametrize("tile_bits", [_TILE_BITS, 3])
    def test_non_dyadic_equals_full_enumeration(self, tile_bits, monkeypatch):
        # decimal couplings, fields and offsets leave ties to rounding, where
        # the screen's q and the energy scorer can rank differently; the oracle
        # must answer as energy() over every configuration does, bit for bit
        monkeypatch.setattr("oscim.problems._TILE_BITS", tile_bits)
        rng = np.random.default_rng(21)
        values = [-0.7, -0.3, -0.2, -0.1, 0.1, 0.2, 0.3, 0.6]
        for n in range(1, 11):
            J = np.triu(rng.choice(values, (n, n)) * (rng.random((n, n)) < 0.6), 1)
            p = IsingProblem(J=J + J.T, h=rng.choice([0.0, 0.1, -0.2, 0.3], n),
                             offset=float(rng.choice([0.0, 0.1, -2.7])))
            assert brute_force_ground_states(p) == self.full_enumeration(p)

    @pytest.mark.parametrize("offset, count", [(0.0, 1), (1e16, 2), (1e17, 8)])
    def test_offset_rounds_energies_together(self, offset, count):
        # adding a large offset rounds distinct energies to one float: at 1e16
        # (ulp 2) -1.75 and -1.25 both land on 1e16 - 2, at 1e17 (ulp 16) all
        # eight energies land on 1e17, and every such state is a ground state
        p = IsingProblem(J=[[0, 1, 0], [1, 0, 0.5], [0, 0.5, 0]], h=[0.25, 0, 0],
                         offset=offset)
        emin, configs = brute_force_ground_states(p)
        assert (emin, configs) == self.full_enumeration(p)
        assert len(configs) == count

    def test_large_offset_keeps_the_screen_narrow(self):
        # the margin covers |offset| only as far as its rounding reaches (a few
        # ulps of it), so most of the 2^18 states still fail the screen; the
        # 2^16-row chunk walk this replaced peaked at 21.4 MB here (tracemalloc)
        n = 18
        rng = np.random.default_rng(7)
        J = np.triu(rng.choice([-1.0, -0.5, 0.5, 1.0], (n, n)), 1)
        p = IsingProblem(J=J + J.T, h=rng.choice([-0.5, 0.25], n), offset=1e16)
        tracemalloc.start()
        try:
            emin, configs = brute_force_ground_states(p)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert all(energy(p, s) == emin for s in configs)
        assert peak < 4_000_000

    @pytest.mark.parametrize("n, digest", [
        (21, "8bb88720f581db956d028a0e3f0622dbf8b95999f0c464e99c9a663e14924d4e"),
        (24, "923af63bd6530450dc8a3d6ffc361872a1aa02db846c66402a5e1ed77379ac3c"),
    ])
    def test_answers_pinned_at_the_enumeration_limit(self, n, digest):
        # digests of (minimum, sorted ground states) recorded from the 2^n
        # enumeration the screen replaced; n + 1 spins of 22 and 25 give both
        # split shapes, and dyadic entries keep every energy exact
        rng = np.random.default_rng(2500 + n)
        J = np.triu(rng.choice([-1.0, -0.5, 0.5, 1.0], (n, n)) * (rng.random((n, n)) < 0.25), 1)
        h = rng.choice([-0.5, 0.0, 0.0, 0.25], n)
        p = IsingProblem(J=J + J.T, h=h, offset=float(rng.integers(-8, 9)) / 4.0)
        emin, configs = brute_force_ground_states(p)
        text = repr((emin, sorted(configs)))
        assert hashlib.sha256(text.encode()).hexdigest() == digest

    def test_memory_with_every_state_a_ground_state(self):
        # J = h = 0 at n = 16: all 65 536 states survive the screen; the 2^16-row
        # chunk walk this replaced peaked at 24.1 MB here (tracemalloc)
        n = 16
        tracemalloc.start()
        try:
            emin, configs = brute_force_ground_states(
                IsingProblem(J=np.zeros((n, n)), h=np.zeros(n)))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert emin == 0.0 and len(configs) == 2 ** n
        assert peak < 24_000_000


class TestQuboConversions:
    def test_single_variable(self):
        q = Qubo(Q=[[1.0]])
        p = qubo_to_ising(q)
        assert p.h[0] == -0.5
        assert p.offset == 0.5
        assert energy(p, [-1]) == qubo_value(q, [0])
        assert energy(p, [1]) == qubo_value(q, [1])

    def test_zero_problem(self):
        p = qubo_to_ising(Qubo(Q=np.zeros((3, 3))))
        assert np.all(p.J == 0) and np.all(p.h == 0) and p.offset == 0
        q = ising_to_qubo(IsingProblem(J=np.zeros((2, 2)), h=np.zeros(2)))
        assert np.all(q.Q == 0) and q.offset == 0

    @pytest.mark.parametrize("seed", range(5))
    def test_qubo_to_ising_energy_equivalence(self, seed):
        rng = np.random.default_rng(seed)
        n = 4
        Q = np.triu(rng.uniform(-2, 2, (n, n)))
        q = Qubo(Q=Q, offset=float(rng.uniform(-1, 1)))
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
        p = IsingProblem(J=J, h=rng.uniform(-1, 1, n), offset=0.3)
        p2 = qubo_to_ising(ising_to_qubo(p))
        for s in all_spin_configs(n):
            assert energy(p2, s) == pytest.approx(energy(p, s), abs=1e-12)

    def test_recovers_linear_objective(self):
        q0 = Qubo(Q=[[1.0]])
        q1 = ising_to_qubo(qubo_to_ising(q0))
        assert q1.Q[0, 0] == pytest.approx(1.0)
        assert q1.offset == pytest.approx(0.0)

    def test_rejects_lower_triangle(self):
        with pytest.raises(ValueError, match="upper-triangular"):
            Qubo(Q=[[1.0, 0.0], [0.5, 1.0]])

    def test_size_comes_from_q(self):
        assert Qubo(Q=np.zeros((3, 3))).n == 3
        with pytest.raises(ValueError, match=r"Q must have shape \(2, 2\), got \(2, 3\)"):
            Qubo(Q=np.zeros((2, 3)))

    @pytest.mark.parametrize("make", [
        lambda offset: IsingProblem(J=[[0.0]], h=[0.0], offset=offset),
        lambda offset: Qubo(Q=[[1.0]], offset=offset),
    ], ids=["ising", "qubo"])
    def test_offset_is_a_float(self, make):
        for given in (1, np.int64(1), np.float32(1.0)):
            offset = make(given).offset
            assert type(offset) is float and offset == 1.0
        for bad in ("0.5", True, None):
            with pytest.raises(ValueError, match="offset must be numeric"):
                make(bad)
        with pytest.raises(ValueError, match=r"offset must have shape \(\)"):
            make([0.5])

    @pytest.mark.parametrize("make", [
        lambda v: IsingProblem(J=[[v, v], [v, v]], h=[0.0, 0.0]),
        lambda v: IsingProblem(J=[[0.0, 1.0], [1.0, 0.0]], h=[v, v]),
        lambda v: Qubo(Q=[[v, v], [v, v]]),
    ], ids=["J", "h", "Q"])
    @pytest.mark.parametrize("v", ["1", True], ids=["str", "bool"])
    def test_entries_take_numbers_only(self, make, v):
        # the rule reads the array's dtype, so every entry here has the bad type
        with pytest.raises(ValueError, match="must be numeric"):
            make(v)

    @pytest.mark.parametrize("make", [
        lambda: IsingProblem(J=[[0.0, True], [True, 0.0]], h=[0.0, 0.0]),
        lambda: IsingProblem(J=[[0, 1], [1, 0]], h=[np.True_, 0]),
        lambda: IsingProblem(J=[np.zeros(2), np.zeros(2)], h=(0.5, False)),
        lambda: Qubo(Q=[[1, True], [0, 1]]),
    ], ids=["ising-J", "ising-h-numpy-bool", "ising-h-tuple", "qubo-Q"])
    def test_bools_mixed_with_numbers_are_rejected(self, make):
        # numpy infers a number dtype for such a list, reading each bool as 0 or 1
        with pytest.raises(ValueError, match="must be numeric, got bool entries"):
            make()

    @pytest.mark.parametrize("make, field", [
        (lambda v: IsingProblem(J=[[0.0, v], [v, 0.0]], h=[0.0, 0.0]), "J"),
        (lambda v: IsingProblem(J=[[0.0, 1.0], [1.0, 0.0]], h=[0.0, v]), "h"),
        (lambda v: IsingProblem(J=[[0.0]], h=[0.0], offset=v), "offset"),
        (lambda v: Qubo(Q=[[1.0, v], [0.0, 1.0]]), "Q"),
        (lambda v: Qubo(Q=[[1.0]], offset=v), "offset"),
    ], ids=["ising-J", "ising-h", "ising-offset", "qubo-Q", "qubo-offset"])
    @pytest.mark.parametrize("v", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
    def test_entries_must_be_finite(self, make, field, v):
        with pytest.raises(ValueError, match=f"^{field} must be finite, got {v}$"):
            make(v)

    def test_ising_j_has_zero_diagonal(self):
        with pytest.raises(ValueError, match="J must have zero diagonal"):
            IsingProblem(J=[[0.0, 1.0], [1.0, 0.5]], h=[0.0, 0.0])

    def test_ising_j_is_symmetric(self):
        with pytest.raises(ValueError, match="J must be symmetric"):
            IsingProblem(J=[[0.0, 1.0], [0.5, 0.0]], h=[0.0, 0.0])

    @pytest.mark.parametrize("x", [[2, 0], [0.5, 1], [-1, 0], [np.nan, 0]])
    def test_value_takes_binary_assignments_only(self, x):
        q = Qubo(Q=[[1.0, 1.0], [0.0, 1.0]])
        with pytest.raises(ValueError, match="entries must be 0 or 1"):
            qubo_value(q, x)
        assert qubo_value(q, [1.0, 1]) == 3.0


def _reference_qubo_to_ising(q):
    """The conversion as scalar loops, one pair term at a time."""
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
    return J, h, offset


def _reference_ising_to_qubo(p):
    """The inverse conversion as scalar loops."""
    n = p.n
    Q = np.zeros((n, n))
    row_sums = p.J.sum(axis=1)
    for i in range(n):
        Q[i, i] = 2.0 * row_sums[i] - 2.0 * p.h[i]
        for j in range(i + 1, n):
            Q[i, j] = -4.0 * p.J[i, j]
    offset = p.offset - 0.5 * float(p.J.sum()) + float(p.h.sum())
    return Q, offset


def _awkward_values(rng, shape):
    """Non-dyadic values from 1e-3 to 1e5 in magnitude, with +0.0 and -0.0."""
    v = rng.choice([-1.0, 1.0], shape) * 10.0 ** rng.uniform(-3, 5, shape) / 3.0
    kind = rng.random(shape)
    v[kind < 0.25] = 0.0
    v[(kind >= 0.25) & (kind < 0.35)] = -0.0
    return v


def _bits(x):
    return np.asarray(x, dtype=float).tobytes()


class TestConversionBits:
    """The array conversions equal the scalar loops bit for bit, signed zeros too."""

    CASES = 240

    def test_qubo_to_ising_bits(self):
        rng = np.random.default_rng(2401)
        for k in range(self.CASES):
            n = 1 + k % 40
            Q = np.triu(_awkward_values(rng, (n, n)))
            Q[np.tril_indices(n, -1)] = rng.choice([0.0, -0.0], n * (n - 1) // 2)
            q = Qubo(Q=Q, offset=float(_awkward_values(rng, 1)[0]))
            p = qubo_to_ising(q)
            J, h, offset = _reference_qubo_to_ising(q)
            assert _bits(p.J) == _bits(J), k
            assert _bits(p.h) == _bits(h), k
            assert _bits(p.offset) == _bits(offset), k

    def test_ising_to_qubo_bits(self):
        rng = np.random.default_rng(2402)
        for k in range(self.CASES):
            n = 1 + k % 40
            J = np.triu(_awkward_values(rng, (n, n)), 1)
            J = J + J.T
            zeros = np.nonzero(J == 0.0)
            J[zeros] = rng.choice([0.0, -0.0], len(zeros[0]))  # signed zeros on either side
            p = IsingProblem(J=J, h=_awkward_values(rng, n),
                             offset=float(_awkward_values(rng, 1)[0]))
            q = ising_to_qubo(p)
            Q, offset = _reference_ising_to_qubo(p)
            assert _bits(q.Q) == _bits(Q), k
            assert _bits(q.offset) == _bits(offset), k

    def test_negative_zeros_survive(self):
        # a zero coupling becomes a -0.0 QUBO entry, as the convert command prints it
        q = ising_to_qubo(IsingProblem(J=np.zeros((3, 3)), h=np.zeros(3)))
        assert np.signbit(q.Q[np.triu_indices(3, 1)]).all()
        assert not np.signbit(np.tril(q.Q)).any()
