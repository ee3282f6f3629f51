import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qpow.graphs import complete, complete_bipartite, cycle, disjoint_union, empty, from_code, path
from qpow.spectra import (
    JACOBI_CONV_SCALE,
    JACOBI_MAX_SWEEPS,
    EigensolverError,
    a_spectrum,
    adjacency,
    jacobi_eigenvalues,
    jacobi_eigenvalues_batch,
    l_spectrum,
    laplacian,
    q_spectrum,
    signless_laplacian,
)

from conftest import (
    bipartite_mask,
    connected_graphs_naive,
    connected_population,
    eigvalsh_oracle,
    jacobi_reference,
    q_eigs_oracle,
    random_graph,
)


class TestMatrices:
    def test_q_k2(self):
        assert np.array_equal(signless_laplacian(complete(2)), [[1, 1], [1, 1]])

    def test_l_k2(self):
        assert np.array_equal(laplacian(complete(2)), [[1, -1], [-1, 1]])

    def test_traces(self):
        g = complete_bipartite(2, 3)
        assert np.trace(signless_laplacian(g)) == 12 == 2 * g.m
        assert np.trace(laplacian(g)) == 12
        assert np.trace(adjacency(g)) == 0


class TestEigenvalues:
    def test_q_k3(self):
        assert np.allclose(q_spectrum(complete(3)).values, [4, 1, 1], atol=1e-10)

    def test_q_k23(self):
        assert np.allclose(q_spectrum(complete_bipartite(2, 3)).values, [5, 3, 2, 2, 0], atol=1e-10)

    def test_q_k1(self):
        s = q_spectrum(complete(1))
        assert s.values.tolist() == [0.0]
        assert s.h == 0

    def test_l_k3(self):
        assert np.allclose(l_spectrum(complete(3)).values, [3, 3, 0], atol=1e-10)

    def test_q_c4(self):
        assert np.allclose(q_spectrum(cycle(4)).values, [4, 2, 2, 0], atol=1e-10)

    def test_a_k2(self):
        assert np.allclose(a_spectrum(complete(2)).values, [1, -1], atol=1e-12)

    def test_sorted_descending_and_immutable(self):
        s = q_spectrum(cycle(5))
        assert np.all(np.diff(s.values) <= 0)
        with pytest.raises(ValueError):
            s.values[0] = 99.0

    def test_zero_threshold_rule(self):
        s = q_spectrum(complete(4))
        assert s.zero_threshold == pytest.approx(1e-8 * 6.0)
        tiny = q_spectrum(complete(1))
        assert tiny.zero_threshold == 1e-8

    def test_h_counts(self):
        assert q_spectrum(complete(3)).h == 3
        assert q_spectrum(path(3)).h == 2  # bipartite: one zero
        assert q_spectrum(empty(3)).h == 0


class TestJacobi:
    def test_against_lapack_random(self, rng):
        worst = 0.0
        for _ in range(60):
            n = int(rng.integers(1, 24))
            m = rng.normal(size=(n, n))
            m = m + m.T
            got = jacobi_eigenvalues(m)
            want = eigvalsh_oracle(m)
            tol = 1e-10 * max(1.0, float(np.max(np.abs(want))))
            worst = max(worst, float(np.max(np.abs(got - want))))
            assert np.max(np.abs(got - want)) <= tol
        assert worst < 1e-10

    def test_against_lapack_graphs(self, rng):
        for _ in range(40):
            g = random_graph(rng, int(rng.integers(1, 9)))
            got = q_spectrum(g).values
            want = q_eigs_oracle(g)
            assert np.max(np.abs(got - want)) <= 1e-10 * max(1.0, want[0])

    def test_zero_matrix(self):
        assert jacobi_eigenvalues(np.zeros((4, 4))).tolist() == [0.0] * 4

    def test_budget_exhaustion_reported(self):
        m = np.array([[0.0, 1.0], [1.0, 0.0]])
        with pytest.raises(EigensolverError):
            jacobi_eigenvalues(m, max_sweeps=0)

    def test_non_square_rejected(self):
        with pytest.raises(ValueError):
            jacobi_eigenvalues(np.zeros((2, 3)))

    def test_non_symmetric_rejected(self):
        # the true eigenvalues are 1 and 1; one triangle alone would give 2 and 0
        with pytest.raises(ValueError, match="symmetric"):
            jacobi_eigenvalues([[1, 2], [0, 1]])
        with pytest.raises(ValueError, match="symmetric"):
            jacobi_eigenvalues(np.array([[0.0, 1.0], [np.nextafter(1.0, 2.0), 0.0]]))

    def test_tight_tolerance_converges(self, rng):
        for _ in range(10):
            g = random_graph(rng, 8)
            got = q_spectrum(g, conv_scale=1e-14).values
            want = q_eigs_oracle(g)
            assert np.max(np.abs(got - want)) <= 1e-12 * max(1.0, want[0])

    @given(st.integers(1, 10), st.data())
    @settings(max_examples=40, deadline=None)
    def test_psd_and_trace_identities(self, n, data):
        code = data.draw(st.integers(0, (1 << (n * (n - 1) // 2)) - 1))
        g = from_code(n, code)
        s = q_spectrum(g)
        assert np.all(s.values >= -1e-10 * max(1.0, s.values[0]))
        assert np.sum(s.values) == pytest.approx(2 * g.m, abs=1e-8)
        m1 = sum(d * d for d in g.degree_sequence())
        assert np.sum(s.values ** 2) == pytest.approx(m1 + 2 * g.m, abs=1e-8)


class TestJacobiMatchesReference:
    """The Python-float rotation loop returns, bit for bit, what the numpy
    column-then-row loop it replaced returns (conftest.jacobi_reference)."""

    @pytest.mark.parametrize("conv_scale", [JACOBI_CONV_SCALE, 1e-14])
    def test_graph_matrices(self, conv_scale):
        solved = 0
        for n in range(1, 6):
            for g in connected_graphs_naive(n):
                for matrix in (signless_laplacian(g), laplacian(g), adjacency(g)):
                    got = jacobi_eigenvalues(matrix, conv_scale=conv_scale)
                    assert np.array_equal(got, jacobi_reference(matrix, conv_scale)), (n, g.to_code())
                    solved += 1
        assert solved == 3 * (1 + 1 + 4 + 38 + 728)

    @pytest.mark.parametrize("conv_scale", [JACOBI_CONV_SCALE, 1e-14])
    def test_random_symmetric(self, conv_scale):
        rng = np.random.default_rng(5)  # own stream: the shared rng fixture's draws stay as they were
        for n in range(1, 25):
            for _ in range(3):
                m = rng.normal(size=(n, n))
                m = m + m.T
                got = jacobi_eigenvalues(m, conv_scale=conv_scale)
                assert np.array_equal(got, jacobi_reference(m, conv_scale)), n

    # the batched solver, called directly so that every stack takes the
    # batched kernel whatever its size

    @pytest.mark.parametrize("conv_scale", [JACOBI_CONV_SCALE, 1e-14])
    def test_batched_graph_matrices(self, conv_scale):
        solved = 0
        for n in range(1, 6):
            graphs = list(connected_graphs_naive(n))
            for build in (signless_laplacian, laplacian, adjacency):
                stack = np.stack([build(g) for g in graphs])
                got = jacobi_eigenvalues_batch(stack, conv_scale=conv_scale)
                assert got.shape == (len(graphs), n)
                for g, m, row in zip(graphs, stack, got):
                    assert np.array_equal(row, jacobi_reference(m, conv_scale)), (n, g.to_code())
                    solved += 1
        assert solved == 3 * (1 + 1 + 4 + 38 + 728)

    @pytest.mark.parametrize("conv_scale", [JACOBI_CONV_SCALE, 1e-14])
    def test_batched_random_symmetric(self, conv_scale):
        rng = np.random.default_rng(6)
        for n in range(1, 25):
            stack = rng.normal(size=(6, n, n))
            stack = stack + stack.transpose(0, 2, 1)
            got = jacobi_eigenvalues_batch(stack, conv_scale=conv_scale)
            for m, row in zip(stack, got):
                assert np.array_equal(row, jacobi_reference(m, conv_scale)), n

    @pytest.mark.parametrize("conv_scale", [JACOBI_CONV_SCALE, 1e-14])
    def test_batched_mixed_stack(self, conv_scale):
        # members leave the batch at different sweeps; the diagonal, the
        # disconnected Qs and the zero matrices have entries pq = 0 that must
        # stay untouched while their neighbours rotate (two isolated
        # vertices make a pair with pq = 0 and equal diagonal entries)
        rng = np.random.default_rng(8)
        dense = rng.normal(size=(6, 6))
        near = np.diag([5.0, 4.0, 3.0, 2.0, 1.0, 0.5]) + 1e-9 * (dense + dense.T)
        stack = np.stack([
            dense + dense.T, np.diag([3.0, -1.0, 0.0, 2.0, 2.0, 7.0]),
            signless_laplacian(disjoint_union(complete(3), complete(3))),
            signless_laplacian(disjoint_union(empty(2), cycle(4))),
            np.zeros((6, 6)), near, signless_laplacian(path(6)), -0.0 * np.eye(6),
        ])
        got = jacobi_eigenvalues_batch(stack, conv_scale=conv_scale)
        for m, row in zip(stack, got):
            assert np.array_equal(row, jacobi_reference(m, conv_scale))
        assert len({sweeps_to_converge(m, conv_scale) for m in stack}) >= 3

    def test_batched_one_vertex_and_empty(self):
        stack = np.array([[[2.5]], [[-1.0]], [[0.0]]])
        got = jacobi_eigenvalues_batch(stack)
        assert got.shape == (3, 1)
        for m, row in zip(stack, got):
            assert np.array_equal(row, jacobi_reference(m))
        assert jacobi_eigenvalues_batch(np.zeros((0, 4, 4))).shape == (0, 4)

    def test_batched_sweep_budget(self):
        stack = np.stack([signless_laplacian(path(5)), signless_laplacian(cycle(5)),
                          np.zeros((5, 5))])
        with pytest.raises(EigensolverError):
            jacobi_eigenvalues_batch(stack, max_sweeps=0)
        # the budget binds on the slowest member, as it does in the scalar solver
        need = max(sweeps_to_converge(m, JACOBI_CONV_SCALE) for m in stack)
        with pytest.raises(EigensolverError):
            jacobi_eigenvalues_batch(stack, max_sweeps=need - 1)
        got = jacobi_eigenvalues_batch(stack, max_sweeps=need)
        for m, row in zip(stack, got):
            assert np.array_equal(row, jacobi_eigenvalues(m))
        assert np.array_equal(jacobi_eigenvalues_batch(np.zeros((2, 3, 3)), max_sweeps=0),
                              np.zeros((2, 3)))

    def test_batched_rejects_bad_input(self):
        stack = np.stack([signless_laplacian(path(4)), signless_laplacian(cycle(4))])
        skew = stack.copy()
        skew[1, 0, 1] = 2.0
        with pytest.raises(ValueError, match="symmetric"):
            jacobi_eigenvalues_batch(skew)
        nan = stack.copy()
        nan[0, 2, 2] = np.nan
        with pytest.raises(ValueError, match="symmetric"):
            jacobi_eigenvalues_batch(nan)
        for shape in [(4, 4), (2, 3, 4)]:
            with pytest.raises(ValueError, match="square"):
                jacobi_eigenvalues_batch(np.zeros(shape))


def sweeps_to_converge(m, conv_scale) -> int:
    """The fewest sweeps within which conftest.jacobi_reference converges on m."""
    for sweeps in range(JACOBI_MAX_SWEEPS + 1):
        try:
            jacobi_reference(m, conv_scale, max_sweeps=sweeps)
        except EigensolverError:
            continue
        return sweeps
    raise AssertionError("no convergence within the sweep budget")


class TestZeroClassification:
    @pytest.mark.parametrize("n", range(2, 7))
    def test_qn_zero_iff_bipartite_connected(self, n):
        for g in connected_graphs_naive(n):
            s = q_spectrum(g)
            assert (s.values[-1] <= s.zero_threshold) == g.is_bipartite()

    def test_qn_zero_iff_bipartite_full_n7(self):
        # all 1.87M connected graphs on 7 vertices, via the batch kernels
        from qpow import _bulk

        codes, _ = connected_population(7)
        for lo in range(0, codes.size, _bulk.CHUNK):
            rows = _bulk.decode_rows(codes[lo:lo + _bulk.CHUNK], 7)
            eigs = _bulk.q_eigs(rows, 7)
            thr = 1e-8 * np.maximum(eigs[:, 0], 1.0)
            assert np.array_equal(eigs[:, -1] <= thr, bipartite_mask(rows, 7))

    @pytest.mark.parametrize("n", range(2, 7))
    def test_bipartite_lq_cospectral(self, n):
        for g in connected_graphs_naive(n):
            if g.is_bipartite():
                assert np.max(np.abs(q_spectrum(g).values - l_spectrum(g).values)) <= 1e-8
