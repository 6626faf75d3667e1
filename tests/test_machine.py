"""Machine model: quantizer law, coupling planes, SHIL resolution."""

import dataclasses

import numpy as np
import pytest

from oscim.circuit_dynamics import resolve_shil_voltage
from oscim.machine import (
    CouplingMatrix,
    MachineConfig,
    Quantizer,
    build_coupling,
    build_machine,
    effective_weights,
    resolve_shil_strength,
)
from oscim.problems import Graph, IsingProblem, Qubo


class TestQuantizer:
    def test_zero_maps_to_zero(self):
        assert Quantizer().quantize(0.0) == 0

    def test_full_scale_maps_to_max_code(self):
        assert Quantizer().quantize(1.0) == 1023

    def test_known_code(self):
        q = Quantizer()
        assert q.quantize(0.3) == 307
        assert q.dequantize(307) == pytest.approx(0.300098, abs=1e-6)

    def test_round_half_up(self):
        # 0.5 * 1023 = 511.5 rounds up
        assert Quantizer().quantize(0.5) == 512

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            Quantizer().quantize(1.5)
        with pytest.raises(ValueError):
            Quantizer().quantize(-0.1)

    def test_error_bound_over_grid(self):
        q = Quantizer()
        grid = np.linspace(0.0, 1.0, 10_001)
        errors = [abs(q.dequantize(q.quantize(w)) - w) for w in grid]
        assert max(errors) <= 1.0 / 2046.0 + 1e-15

    def test_dequantize_takes_whole_codes_only(self):
        q = Quantizer()
        for code in (1.5, 307.25, float("nan"), float("inf")):
            with pytest.raises(ValueError, match=f"code must be a whole number, got {code}"):
                q.dequantize(code)
        assert q.dequantize(np.int64(307)) == q.dequantize(307.0) == 307 / 1023
        with pytest.raises(ValueError, match=r"^code 1024 outside \[0, 1023\]$"):
            q.dequantize(1024)

    def test_other_bit_depths(self):
        q = Quantizer(bits=4)
        assert q.max_code == 15
        assert q.quantize(1.0) == 15

    def test_bits_take_whole_numbers_only(self):
        q = Quantizer(bits=10.0)
        assert type(q.bits) is int and q.max_code == 1023
        for bits in (2.5, float("nan")):
            with pytest.raises(ValueError, match=f"bits must be a whole number, got {bits}"):
                Quantizer(bits=bits)
        for bits in (True, "10"):
            with pytest.raises(ValueError, match="bits must be numeric"):
                Quantizer(bits=bits)

    @pytest.mark.parametrize("bits", [0, -3, 17])
    def test_bits_outside_1_to_16_rejected(self, bits):
        with pytest.raises(ValueError, match=f"bits must be in 1..16, got {bits}"):
            Quantizer(bits=bits)


class TestBuildCoupling:
    def test_single_edge_full_code(self):
        g = Graph(n=2, edges=((1, 2, 1.0),))
        c = build_coupling(g)
        assert c.codes[0, 1] == 1023
        assert c.codes[1, 0] == 1023
        assert c.signs[0, 1] == 1

    def test_empty_graph(self):
        c = build_coupling(Graph(n=4, edges=()))
        assert np.all(c.codes == 0)
        assert np.all(c.signs == 0)

    def test_triangle_normalization(self):
        g = Graph(n=3, edges=((1, 2, 1.0), (2, 3, 1.0), (1, 3, 0.5)))
        c = build_coupling(g)
        assert c.codes[0, 1] == 1023
        assert c.codes[1, 2] == 1023
        assert c.codes[0, 2] == 512  # 511.5 rounds half-up

    def test_negative_weight_sign_plane(self):
        g = Graph(n=2, edges=((1, 2, -0.7),))
        c = build_coupling(g)
        assert c.signs[0, 1] == -1
        assert c.codes[0, 1] == 1023  # only edge, so full scale in magnitude

    def test_eight_node_all_to_all_has_56_entries(self):
        g = Graph(n=8, edges=tuple(
            (u, v, 1.0) for u in range(1, 9) for v in range(u + 1, 9)
        ))
        c = build_coupling(g)
        assert int((c.codes > 0).sum()) == 56


def _reference_coupling(g, q):
    """Code and sign planes filled one edge at a time with scalar quantizer calls."""
    codes = np.zeros((g.n, g.n), dtype=int)
    signs = np.zeros((g.n, g.n), dtype=int)
    if g.edges:
        wmax = max(abs(w) for _, _, w in g.edges)
        for u, v, w in g.edges:
            if w == 0.0:
                continue
            code = int(np.floor(abs(w) / wmax * q.max_code + 0.5))
            codes[u - 1, v - 1] = codes[v - 1, u - 1] = code
            signs[u - 1, v - 1] = signs[v - 1, u - 1] = 1 if w > 0 else -1
    return codes, signs


def _awkward_graph(rng, n):
    """Random graph with non-dyadic, negative, +0.0 and -0.0 weights."""
    edges = []
    for u in range(1, n + 1):
        for v in range(u + 1, n + 1):
            r = rng.random()
            if r < 0.4:
                continue
            w = 0.0 if r < 0.5 else -0.0 if r < 0.55 else rng.uniform(-3.0, 3.0) / 7.0
            edges.append((u, v, float(w)))
    return Graph(n=n, edges=tuple(edges))


class TestCouplingPlanesBits:
    @pytest.mark.parametrize("bits", range(1, 17))
    def test_planes_equal_per_edge_reference(self, bits):
        rng = np.random.default_rng(700 + bits)
        q = Quantizer(bits=bits)
        for n in (2, 3, 5, 8, 13, 20):
            g = _awkward_graph(rng, n)
            c = build_coupling(g, q)
            codes, signs = _reference_coupling(g, q)
            assert c.codes.dtype == codes.dtype and c.signs.dtype == signs.dtype
            assert np.array_equal(c.codes, codes) and np.array_equal(c.signs, signs)

    def test_all_zero_weights(self):
        g = Graph(n=4, edges=((1, 2, 0.0), (2, 3, -0.0), (1, 4, 0.0)))
        c = build_coupling(g)
        assert not c.codes.any() and not c.signs.any()

    def test_planes_are_read_only(self):
        c = build_coupling(Graph(n=3, edges=((1, 2, 0.5),)))
        assert not c.codes.flags.writeable and not c.signs.flags.writeable


class TestQuantizerArrays:
    @pytest.mark.parametrize("bits", [1, 4, 10, 16])
    def test_array_equals_scalar_calls(self, bits):
        q = Quantizer(bits=bits)
        w = np.random.default_rng(bits).random((6, 7))
        w[0, :3] = (0.0, 1.0, 0.5)
        codes = q.quantize(w)
        assert codes.shape == w.shape
        assert codes.tolist() == [[q.quantize(float(x)) for x in row] for row in w]

    def test_array_ties_round_half_up(self):
        # w * max_code lands exactly on 0.5 or 1.5: half-up, not half-to-even
        assert Quantizer(bits=1).quantize([0.0, 0.5, 1.0]).tolist() == [0, 1, 1]
        assert Quantizer(bits=2).quantize(np.array([[0.5, 1 / 6]])).tolist() == [[2, 1]]

    @pytest.mark.parametrize("bad", [1.0 + 1e-12, -1e-300, float("nan")])
    def test_rejects_one_entry_out_of_range(self, bad):
        w = np.linspace(0.0, 1.0, 9)
        w[4] = bad
        with pytest.raises(ValueError, match=r"outside \[0, 1\]"):
            Quantizer().quantize(w)
        # the message names the first offending weight, not the whole plane
        plane = np.full((24, 24), 0.5)
        plane[3, 4] = bad
        plane[5, 6] = 2.0
        with pytest.raises(ValueError) as info:
            Quantizer().quantize(plane)
        assert str(info.value) == f"weight {bad} outside [0, 1]"


class TestCouplingMatrixInvariants:
    def test_rejects_nonzero_diagonal(self):
        codes = np.zeros((2, 2), int)
        codes[0, 0] = 5
        with pytest.raises(ValueError, match="diagonal"):
            CouplingMatrix(codes=codes, signs=np.zeros((2, 2), int))

    def test_rejects_asymmetric_when_flagged(self):
        codes = np.zeros((2, 2), int)
        codes[0, 1] = 5
        with pytest.raises(ValueError, match="symmetric"):
            CouplingMatrix(codes=codes, signs=np.zeros((2, 2), int))

    @pytest.mark.parametrize("field, bad", [("codes", 1.7), ("signs", 1.9),
                                            ("signs", float("nan"))])
    def test_rejects_entries_that_are_not_whole(self, field, bad):
        # int conversion would truncate 1.9 to a valid sign +1
        planes = {"codes": np.zeros((2, 2)), "signs": np.zeros((2, 2))}
        planes[field][0, 1] = planes[field][1, 0] = bad
        with pytest.raises(ValueError, match=f"{field} must hold whole numbers, got {bad}"):
            CouplingMatrix(**planes)

    @pytest.mark.parametrize("codes, signs, message", [
        (np.zeros((2, 2)), np.zeros((3, 3)), r"signs must have shape \(2, 2\), got \(3, 3\)"),
        (np.zeros((2, 3)), np.zeros((2, 3)), r"codes must have shape \(2, 2\), got \(2, 3\)"),
    ], ids=["signs-of-another-shape", "non-square-codes"])
    def test_size_comes_from_the_codes(self, codes, signs, message):
        with pytest.raises(ValueError, match=message):
            CouplingMatrix(codes=codes, signs=signs)
        assert CouplingMatrix(codes=np.zeros((3, 3)), signs=np.zeros((3, 3))).n == 3

    @pytest.mark.parametrize("field, bad", [("codes", "3"), ("signs", "1"), ("signs", True)])
    def test_rejects_entries_that_are_not_numbers(self, field, bad):
        planes = {"codes": [[0, 3], [3, 0]], "signs": [[0, 1], [1, 0]]}
        planes[field] = [[type(bad)(0), bad], [bad, type(bad)(0)]]
        with pytest.raises(ValueError, match=f"{field} must be numeric"):
            CouplingMatrix(**planes)

    @pytest.mark.parametrize("field", ["codes", "signs"])
    def test_rejects_bools_mixed_with_numbers(self, field):
        planes = {"codes": [[0, 3], [3, 0]], "signs": [[0, 1], [1, 0]]}
        planes[field] = [[0, True], [1, 0]]
        with pytest.raises(ValueError, match=f"{field} must be numeric, got bool entries"):
            CouplingMatrix(**planes)

    def test_accepts_whole_floats(self):
        c = CouplingMatrix(codes=[[0.0, 3.0], [3.0, 0.0]], signs=[[0, -1.0], [-1.0, 0]])
        assert c.codes.dtype == c.signs.dtype == int
        assert (c.codes[0, 1], c.signs[0, 1]) == (3, -1)

    @pytest.mark.parametrize("bits, code", [(10, 1024), (4, 16)])
    def test_rejects_codes_above_the_maximum(self, bits, code):
        codes = np.array([[0, code], [code, 0]])
        with pytest.raises(ValueError, match=rf"codes must lie in \[0, {(1 << bits) - 1}\]"):
            CouplingMatrix(codes=codes, signs=np.zeros((2, 2), int),
                           quantizer=Quantizer(bits=bits))

    @pytest.mark.parametrize("sign", [2, -2])
    def test_rejects_signs_outside_the_sign_set(self, sign):
        signs = np.array([[0, sign], [sign, 0]])
        with pytest.raises(ValueError, match=r"signs must be -1, 0 or \+1"):
            CouplingMatrix(codes=np.array([[0, 3], [3, 0]]), signs=signs)


def test_only_independent_values_are_settable():
    # sizes follow the arrays and the sync gate is a protocol step, not a field
    fields = {cls.__name__: [f.name for f in dataclasses.fields(cls)]
              for cls in (MachineConfig, CouplingMatrix, IsingProblem, Qubo)}
    assert fields == {
        "MachineConfig": ["coupling", "global_scale", "shil_amplitude", "f0", "detuning",
                          "noise_sigma"],
        "CouplingMatrix": ["codes", "signs", "quantizer"],
        "IsingProblem": ["J", "h", "offset"],
        "Qubo": ["Q", "offset"],
    }


class TestMachineConfigValidation:
    EDGE = Graph(n=2, edges=((1, 2, 1.0),))

    @pytest.mark.parametrize("field", ["f0", "global_scale", "noise_sigma"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_non_finite_scalar_rejected(self, field, value):
        with pytest.raises(ValueError, match=f"{field} must be finite"):
            build_machine(self.EDGE, **{field: value})

    @pytest.mark.parametrize("value", [float("nan"), float("-inf")])
    def test_non_finite_detuning_rejected(self, value):
        with pytest.raises(ValueError, match="detuning must be finite"):
            build_machine(self.EDGE, detuning=(0.0, value))

    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_non_finite_shil_amplitude_rejected(self, value):
        with pytest.raises(ValueError, match="amplitude must be finite"):
            build_machine(self.EDGE, shil_amplitude=value)

    @pytest.mark.parametrize("value", [-1e-300, -0.5, float("-inf")])
    def test_negative_shil_amplitude_rejected(self, value):
        with pytest.raises(ValueError, match="amplitude must be"):
            build_machine(self.EDGE, shil_amplitude=value)

    @pytest.mark.parametrize("value", [-0.5, float("nan"), float("inf")])
    def test_shil_amplitude_checked_by_the_config_itself(self, value):
        c = build_coupling(self.EDGE)
        with pytest.raises(ValueError, match="amplitude must be"):
            MachineConfig(coupling=c, shil_amplitude=value)

    def test_oscillator_count_follows_the_coupling(self):
        m = build_machine(Graph(n=5, edges=((1, 4, 1.0),)))
        assert m.n == m.coupling.n == 5
        with pytest.raises(ValueError, match="at least two"):
            MachineConfig(coupling=build_coupling(Graph(n=1, edges=())))

    @pytest.mark.parametrize("value", [-1.0, -1.5])
    def test_detuning_at_or_below_minus_one_rejected(self, value):
        with pytest.raises(ValueError, match="detuning must be > -1"):
            build_machine(self.EDGE, detuning=(value, 0.0))

    @pytest.mark.parametrize("f0", [0.0, -3800.0])
    def test_non_positive_f0_rejected(self, f0):
        with pytest.raises(ValueError, match="f0 must be positive"):
            build_machine(self.EDGE, f0=f0)

    @pytest.mark.parametrize("detuning", [(0.01,), (0.0, 0.01, -0.01)])
    def test_detuning_of_the_wrong_length_rejected(self, detuning):
        with pytest.raises(ValueError, match="one offset per oscillator"):
            build_machine(self.EDGE, detuning=detuning)


class TestEffectiveWeights:
    def test_zero_codes_zero_weights(self):
        m = build_machine(Graph(n=3, edges=()))
        assert np.all(effective_weights(m) == 0.0)

    def test_product_law(self):
        g = Graph(n=2, edges=((1, 2, 1.0),))
        m = build_machine(g, global_scale=0.2)
        assert effective_weights(m)[0, 1] == pytest.approx(0.2)

    def test_code_sign_scale_composition(self):
        codes = np.array([[0, 307], [307, 0]])
        signs = np.array([[0, -1], [-1, 0]])
        c = CouplingMatrix(codes=codes, signs=signs)
        m = MachineConfig(coupling=c, global_scale=0.5)
        assert effective_weights(m)[0, 1] == pytest.approx(-0.150049, abs=1e-6)

    def test_symmetry_and_zero_diagonal(self):
        rng = np.random.default_rng(5)
        edges = tuple(
            (u, v, float(rng.uniform(-1, 1)))
            for u in range(1, 7) for v in range(u + 1, 7) if rng.random() < 0.6
        )
        m = build_machine(Graph(n=6, edges=edges))
        w = effective_weights(m)
        assert np.array_equal(w, w.T)
        assert np.all(np.diag(w) == 0.0)


class TestShilResolution:
    def test_explicit_amplitude_passes_through(self):
        g = Graph(n=2, edges=((1, 2, 1.0),))
        m = build_machine(g, shil_amplitude=0.42)
        assert resolve_shil_strength(m) == 0.42

    def test_disabled_shil_is_zero(self):
        g = Graph(n=2, edges=((1, 2, 1.0),))
        m = build_machine(g, shil_amplitude=0.0)
        assert resolve_shil_strength(m) == 0.0
        assert resolve_shil_voltage(m) == 0.0

    def test_default_capped_by_row_sum(self):
        g = Graph(n=2, edges=((1, 2, 1.0),))
        m = build_machine(g, global_scale=0.2)
        assert resolve_shil_strength(m) == pytest.approx(0.15 * 0.2)

    def test_default_saturates_for_dense_graphs(self):
        g = Graph(n=8, edges=tuple(
            (u, v, 1.0) for u in range(1, 9) for v in range(u + 1, 9)
        ))
        m = build_machine(g, global_scale=0.3)
        assert resolve_shil_strength(m) == 0.1

    def test_unprogrammed_machine_keeps_default(self):
        m = build_machine(Graph(n=4, edges=()))
        assert resolve_shil_strength(m) == 0.1
