from __future__ import annotations

import random

import numpy as np
import pytest

from dynwire import (
    ArityError,
    CPGraph,
    DWDiagram,
    FinFunction,
    KindError,
    Machine,
    ResourceSharer,
    SizeMismatchError,
    UWDiagram,
    builtin_model,
    cpg_to_dwd,
    euler_directed,
    euler_undirected,
    eval_dynamics,
    eval_readout,
    grid,
    identity_dwd,
    identity_uwd,
    instantiate,
    oapply_cpg,
    oapply_directed,
    oapply_undirected,
    oapply_undirected_with_layout,
    compose,
)
from helpers import random_cpg, random_machine, random_sharer


def linear_machine(n_inputs=1, n_states=1, n_outputs=1):
    return Machine(
        n_inputs,
        n_states,
        n_outputs,
        lambda a, x: a[:n_states] if n_inputs >= n_states else x,
        lambda x: np.resize(x, n_outputs),
        "continuous",
    )


class TestEvalDynamics:
    def test_sir_vector_field(self):
        m = instantiate(builtin_model("sir_city", {"beta": 0.5, "gamma": 0.25}))
        out = eval_dynamics(m, [0.0, 0.0], [10.0, 1.0, 0.0])
        assert out.tolist() == [-5.0, 4.75, 0.25]

    def test_zero_state_machine(self):
        m = Machine(0, 0, 0, lambda a, x: x, lambda x: x, "continuous")
        assert eval_dynamics(m, [], []).tolist() == []

    def test_input_passthrough(self):
        m = Machine(1, 1, 0, lambda a, x: a, lambda x: np.zeros(0), "continuous")
        assert eval_dynamics(m, [3.0], [99.0]).tolist() == [3.0]

    def test_length_mismatch(self):
        m = linear_machine()
        with pytest.raises(SizeMismatchError):
            eval_dynamics(m, [1.0, 2.0], [0.0])
        with pytest.raises(SizeMismatchError):
            eval_dynamics(m, [1.0], [0.0, 0.0])

    def test_a_program_of_other_sizes_is_refused(self):
        heat = instantiate(builtin_model("heat_node", {"alpha": 0.1}))  # sizes (4, 1, 4)
        with pytest.raises(SizeMismatchError, match=r"= \(4, 1, 4\), system has \(2, 3, 3\)"):
            Machine(2, 3, 3, heat.dynamics, heat.readout, "continuous", heat.program)
        lv = instantiate(builtin_model("lv_predation", {"a": 0.1, "b": 0.2}))  # sizes (0, 2, 0)
        with pytest.raises(SizeMismatchError, match=r"\(0, 2, 0\), system has \(0, 3, 0\)"):
            ResourceSharer(0, 3, FinFunction(0, 3, ()), lv.dynamics, "continuous", lv.program)
        with pytest.raises(SizeMismatchError):  # a machine's program for a sharer
            ResourceSharer(0, 1, FinFunction(0, 1, ()), heat.dynamics, "continuous", heat.program)
        same = Machine(4, 1, 4, heat.dynamics, heat.readout, "continuous", heat.program)
        assert same == heat and same.program is heat.program


def identity_machine_like(nprng, m, n):
    return random_machine(nprng, m, n)


class TestOapplyDirected:
    def test_unit_law_behavioral(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            m_in, m_out = int(rng.integers(0, 3)), int(rng.integers(0, 3))
            machine = random_machine(rng, m_in, m_out)
            composite = oapply_directed(identity_dwd(m_in, m_out), [machine])
            assert composite.n_states == machine.n_states
            for _ in range(5):
                a = rng.standard_normal(m_in)
                x = rng.standard_normal(machine.n_states)
                assert np.allclose(
                    composite.dynamics(a, x), machine.dynamics(a, x), atol=1e-12, rtol=0
                )
                assert np.allclose(
                    composite.readout(x), machine.readout(x), atol=1e-12, rtol=0
                )

    def test_merged_wires_sum(self):
        echo = Machine(0, 1, 2, lambda a, x: x, lambda x: np.repeat(x, 2), "continuous")
        sink = Machine(1, 1, 0, lambda a, x: a, lambda x: np.zeros(0), "continuous")
        d = DWDiagram.from_tables(
            2, box_in=[1], box_out=[0, 0], wires=[(0, 0), (1, 0)]
        )
        # Both out-ports of the echo box feed the sink's single in-port.
        composite = oapply_directed(d, [echo, sink])
        out = composite.dynamics(np.zeros(0), np.array([2.5, 0.0]))
        assert out.tolist() == [2.5, 5.0]

    def test_wireless_in_port_reads_zero(self):
        sink = Machine(1, 1, 0, lambda a, x: a, lambda x: np.zeros(0), "continuous")
        d = DWDiagram.from_tables(1, box_in=[0], box_out=[])
        composite = oapply_directed(d, [sink])
        assert composite.dynamics(np.zeros(0), np.array([7.0])).tolist() == [0.0]

    def test_feedback_resolves_in_one_pass(self):
        # readout depends on state only, so a self-loop is well defined.
        accum = Machine(1, 1, 1, lambda a, x: a, lambda x: 2.0 * x, "continuous")
        d = DWDiagram.from_tables(1, box_in=[0], box_out=[0], wires=[(0, 0)])
        composite = oapply_directed(d, [accum])
        assert composite.dynamics(np.zeros(0), np.array([3.0])).tolist() == [6.0]

    def test_outer_readout_routes_and_sums(self):
        echo = Machine(0, 2, 2, lambda a, x: x, lambda x: x, "continuous")
        d = DWDiagram.from_tables(
            1, box_in=[], box_out=[0, 0], n_outer_out=2,
            out_wires=[(0, 0), (1, 0)],
        )
        composite = oapply_directed(d, [echo])
        out = composite.readout(np.array([1.0, 10.0]))
        assert out.tolist() == [11.0, 0.0]

    def test_box_wire_and_outer_in_wires_sum_on_one_port(self):
        source = Machine(0, 1, 1, lambda a, x: np.zeros(1), lambda x: x, "continuous")
        sink = Machine(1, 1, 0, lambda a, x: a, lambda x: np.zeros(0), "continuous")
        d = DWDiagram.from_tables(
            2, box_in=[1], box_out=[0], n_outer_in=2, n_outer_out=2,
            wires=[(0, 0)], in_wires=[(0, 0), (1, 0)], out_wires=[(0, 0), (0, 1)],
        )
        composite = oapply_directed(d, [source, sink])
        x = np.array([0.5, 0.0])
        assert composite.dynamics(np.array([0.25, 2.0]), x).tolist() == [0.0, 2.75]
        assert composite.readout(x).tolist() == [0.5, 0.5]

    def test_state_count_law(self):
        rng = random.Random(21)
        nprng = np.random.default_rng(21)
        from helpers import random_dwd

        for _ in range(20):
            d = random_dwd(rng)
            machines = [random_machine(nprng, m, n) for m, n in d.signature]
            composite = oapply_directed(d, machines)
            assert composite.n_states == sum(m.n_states for m in machines)

    def test_kind_mismatch(self):
        cont = Machine(0, 1, 0, lambda a, x: x, lambda x: np.zeros(0), "continuous")
        disc = Machine(0, 1, 0, lambda a, x: x, lambda x: np.zeros(0), "discrete")
        d = DWDiagram.from_tables(2, box_in=[], box_out=[])
        with pytest.raises(KindError):
            oapply_directed(d, [cont, disc])

    def test_arity_error(self):
        d = DWDiagram.from_tables(1, box_in=[0, 0], box_out=[])
        with pytest.raises(ArityError, match=r"box 0 expects \(in, out\) = \(2, 0\)"):
            oapply_directed(d, [linear_machine(1, 1, 0)])


def const_sharer(n_ports, n_states, portmap, values):
    return ResourceSharer(
        n_ports,
        n_states,
        FinFunction(n_ports, n_states, portmap),
        lambda x: np.asarray(values, dtype=float),
        "continuous",
    )


class TestOapplyUndirected:
    def test_glued_states_sum_dynamics(self):
        s1 = const_sharer(1, 1, (0,), [1.5])
        s2 = const_sharer(1, 1, (0,), [2.0])
        d = UWDiagram.from_tables(2, 1, box=[0, 1], junc_in=[0, 0], junc_out=[0])
        out = oapply_undirected(d, [s1, s2])
        assert out.n_states == 1
        assert out.dynamics(np.array([4.0])).tolist() == [3.5]
        assert out.portmap.map == (0,)

    def test_isolated_junction_is_inert(self):
        s = const_sharer(1, 1, (0,), [1.0])
        d = UWDiagram.from_tables(1, 2, box=[0], junc_in=[0], junc_out=[1])
        cont = oapply_undirected(d, [s])
        assert cont.n_states == 2
        assert cont.dynamics(np.array([5.0, 9.0])).tolist() == [1.0, 0.0]
        disc = oapply_undirected(
            d, [ResourceSharer(1, 1, FinFunction(1, 1, (0,)), lambda x: 3.0 * x, "discrete")]
        )
        out = disc.dynamics(np.array([5.0, 9.0]))
        assert out.tolist() == [15.0, 9.0]

    def test_identity_diagram_is_unit(self):
        nprng = np.random.default_rng(5)
        for _ in range(20):
            k = int(nprng.integers(0, 4))
            s = random_sharer(nprng, k)
            composite = oapply_undirected(identity_uwd(k), [s])
            assert composite.n_states == s.n_states
            assert composite.portmap == s.portmap
            x = nprng.standard_normal(s.n_states)
            assert composite.dynamics(x).tolist() == s.dynamics(x).tolist()

    def test_portmap_is_injection_after_junction(self):
        rng = random.Random(31)
        nprng = np.random.default_rng(31)
        from helpers import random_uwd

        for _ in range(20):
            d = random_uwd(rng)
            sharers = [random_sharer(nprng, k) for k in d.port_counts]
            sharer, layout = oapply_undirected_with_layout(d, sharers)
            assert sharer.n_states == layout.state_injection.cod_size
            expected = compose(d.data.part_fn("junc_out"), layout.junction_injection)
            assert sharer.portmap == expected

    def test_discrete_formula(self):
        # Two discrete states glued at one junction: the composite next state
        # is x plus the summed increments.
        s1 = ResourceSharer(1, 1, FinFunction(1, 1, (0,)), lambda x: x + 2.0, "discrete")
        s2 = ResourceSharer(1, 1, FinFunction(1, 1, (0,)), lambda x: x + 5.0, "discrete")
        d = UWDiagram.from_tables(2, 1, box=[0, 1], junc_in=[0, 0], junc_out=[])
        out = oapply_undirected(d, [s1, s2])
        assert out.dynamics(np.array([1.0])).tolist() == [8.0]


class TestCompositePurity:
    def test_repeated_evaluation_is_identical(self):
        rng = random.Random(61)
        nprng = np.random.default_rng(61)
        from helpers import random_dwd, random_uwd

        d = random_dwd(rng)
        machines = [random_machine(nprng, m, n) for m, n in d.signature]
        composite = oapply_directed(d, machines)
        a = nprng.standard_normal(composite.n_inputs)
        x = nprng.standard_normal(composite.n_states)
        first = composite.dynamics(a, x)
        assert composite.dynamics(a, x).tolist() == first.tolist()
        assert composite.readout(x).tolist() == composite.readout(x).tolist()

        u = random_uwd(rng)
        sharers = [random_sharer(nprng, k) for k in u.port_counts]
        glued = oapply_undirected(u, sharers)
        y = nprng.standard_normal(glued.n_states)
        assert glued.dynamics(y).tolist() == glued.dynamics(y).tolist()


class TestEvalSharer:
    def test_size_checks(self):
        from dynwire import eval_sharer

        s = ResourceSharer(0, 2, FinFunction(0, 2, ()), lambda x: x, "continuous")
        assert eval_sharer(s, [1.0, 2.0]).tolist() == [1.0, 2.0]
        with pytest.raises(SizeMismatchError):
            eval_sharer(s, [1.0])
        bad = ResourceSharer(0, 2, FinFunction(0, 2, ()), lambda x: x[:1], "continuous")
        with pytest.raises(SizeMismatchError):
            eval_sharer(bad, [1.0, 2.0])


class TestEuler:
    def test_directed_formula(self):
        m = Machine(0, 1, 0, lambda a, x: x, lambda x: np.zeros(0), "continuous")
        stepped = euler_directed(m, 0.1)
        assert stepped.kind == "discrete"
        assert np.allclose(stepped.dynamics(np.zeros(0), np.array([1.0])), [1.1], atol=1e-15)

    def test_zero_field_is_identity_step(self):
        m = Machine(0, 2, 0, lambda a, x: np.zeros(2), lambda x: np.zeros(0), "continuous")
        stepped = euler_directed(m, 0.7)
        x = np.array([2.0, -3.0])
        assert stepped.dynamics(np.zeros(0), x).tolist() == x.tolist()

    def test_readout_unchanged(self):
        m = linear_machine(1, 1, 1)
        stepped = euler_directed(m, 0.5)
        x = np.array([4.0])
        assert eval_readout(stepped, x).tolist() == eval_readout(m, x).tolist()

    def test_undirected_formula(self):
        s = ResourceSharer(0, 1, FinFunction(0, 1, ()), lambda x: -x, "continuous")
        stepped = euler_undirected(s, 0.5)
        assert stepped.dynamics(np.array([2.0])).tolist() == [1.0]
        assert stepped.portmap == s.portmap

    def test_zero_field_undirected(self):
        s = ResourceSharer(0, 2, FinFunction(0, 2, ()), lambda x: np.zeros(2), "continuous")
        stepped = euler_undirected(s, 0.25)
        x = np.array([1.0, 2.0])
        assert stepped.dynamics(x).tolist() == x.tolist()

    def test_wrong_kind_rejected(self):
        disc = Machine(0, 1, 0, lambda a, x: x, lambda x: np.zeros(0), "discrete")
        with pytest.raises(KindError):
            euler_directed(disc, 0.1)
        s = ResourceSharer(0, 1, FinFunction(0, 1, ()), lambda x: x, "discrete")
        with pytest.raises(KindError):
            euler_undirected(s, 0.1)


class TestHeatGrid:
    """Conservation properties of the stencil grid.

    The symmetric interior wiring conserves heat exactly; the only change in
    total heat is boundary exchange.  An open grid with zero boundary inputs
    therefore loses heat through its exposed ports, and a fully wired torus
    conserves it.
    """

    def _grid_system(self, g, alpha, h):
        from dynwire import builtin_model, instantiate

        node = instantiate(builtin_model("heat_node", {"alpha": alpha}))
        return euler_directed(oapply_cpg(g, [node] * g.n_boxes), h)

    def test_boundary_flux_accounts_for_all_change(self):
        alpha, h = 0.1, 0.01
        g = grid(6, 6)
        stepped = self._grid_system(g, alpha, h)
        exposed_per_box = np.zeros(g.n_boxes)
        for q in range(g.n_outer):
            exposed_per_box[g.data.parts["box"][g.data.parts["expose"][q]]] += 1
        nprng = np.random.default_rng(77)
        x = nprng.uniform(0.0, 1.0, g.n_boxes)
        boundary = np.zeros(g.n_outer)
        for _ in range(200):
            nxt = stepped.dynamics(boundary, x)
            boundary_loss = h * alpha * float(exposed_per_box @ x)
            assert abs(float(nxt.sum() - x.sum()) + boundary_loss) <= 1e-9
            x = nxt

    def test_open_grid_leaks_heat(self):
        g = grid(4, 4)
        stepped = self._grid_system(g, 0.1, 0.01)
        x = np.ones(16)
        total0 = x.sum()
        for _ in range(100):
            x = stepped.dynamics(np.zeros(g.n_outer), x)
        assert x.sum() < total0 - 1e-3

    def test_torus_conserves_total_heat(self):
        from helpers import torus

        t = torus(4, 4)
        assert t.n_outer == 0
        stepped = self._grid_system(t, 0.1, 0.01)
        nprng = np.random.default_rng(78)
        x = nprng.uniform(0.0, 1.0, 16)
        total0 = float(x.sum())
        for _ in range(1000):
            x = stepped.dynamics(np.zeros(0), x)
            assert abs(float(x.sum()) - total0) <= 1e-9


class TestOapplyCPG:
    def test_grid_1x1_routes_boundary(self):
        nprng = np.random.default_rng(9)
        m = random_machine(nprng, 4, 4)
        composite = oapply_cpg(grid(1, 1), [m])
        a = nprng.standard_normal(4)
        x = nprng.standard_normal(m.n_states)
        assert np.allclose(composite.dynamics(a, x), m.dynamics(a, x), atol=1e-12, rtol=0)
        assert np.allclose(composite.readout(x), m.readout(x), atol=1e-12, rtol=0)

    def test_grid_2x1_neighbor_exchange(self):
        probe = Machine(4, 1, 4, lambda a, x: a[1:2], lambda x: np.repeat(x, 4), "continuous")
        composite = oapply_cpg(grid(2, 1), [probe, probe])
        # Box 0's East input should be box 1's readout.
        out = composite.dynamics(np.zeros(6), np.array([3.0, 8.0]))
        assert out.tolist() == [8.0, 0.0]

    def test_wired_port_exposed_twice_sums_both_inputs(self):
        # Port 1 (box 1) takes box 0's readout by wire and both outer inputs.
        echo = Machine(1, 1, 1, lambda a, x: a, lambda x: x, "continuous")
        g = CPGraph.from_tables(2, box=[0, 1], wires=[(0, 1)], expose=[1, 1])
        a, x = np.array([0.25, 2.0]), np.array([0.5, 3.0])
        machines = [echo, echo]
        for composite in (oapply_cpg(g, machines), oapply_directed(cpg_to_dwd(g), machines)):
            assert composite.dynamics(a, x).tolist() == [0.0, 2.75]
            assert composite.readout(x).tolist() == [3.0, 3.0]

    def test_refusals_name_the_box_count_and_the_misfit_box(self):
        echo = Machine(1, 1, 1, lambda a, x: a, lambda x: x, "continuous")
        g = CPGraph.from_tables(2, box=[0, 1, 1], wires=[], expose=[])
        with pytest.raises(ArityError, match=r"^diagram has 2 boxes but 1 machines were given$"):
            oapply_cpg(g, [echo])
        with pytest.raises(
            ArityError, match=r"^box 1 expects 2 inputs and outputs, machine has \(1, 1\)$"
        ):
            oapply_cpg(g, [echo, echo])

    def test_agrees_with_migrated_path(self):
        rng = random.Random(41)
        nprng = np.random.default_rng(41)
        for _ in range(15):
            g = random_cpg(rng)
            machines = [random_machine(nprng, k, k) for k in g.port_counts]
            fast = oapply_cpg(g, machines)
            slow = oapply_directed(cpg_to_dwd(g), machines)
            assert fast.n_states == slow.n_states
            for _ in range(5):
                a = nprng.standard_normal(fast.n_inputs)
                x = nprng.standard_normal(fast.n_states)
                assert np.allclose(fast.dynamics(a, x), slow.dynamics(a, x), atol=1e-12, rtol=0)
                assert np.allclose(fast.readout(x), slow.readout(x), atol=1e-12, rtol=0)
