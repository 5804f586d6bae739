import math

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_allclose

import qlmpc as q
import qlmpc.models as models
import qlmpc.stacked as stacked
from qlmpc.stacked import stage_data

import oracles

ALL_MODEL_IDS = ["unicycle", "adip", "tiny-lti", "tiny-qlpv"]


def build_problem(name, horizon):
    m = q.get_model(name)
    n_x, n_u = m.dims.n_x, m.dims.n_u
    w = q.Weights(Q=np.eye(n_x), R=np.eye(n_u), P=np.eye(n_x))
    return q.StackedProblem.build(m, horizon, w)


def random_point(prob, rng, scale=1.0):
    return q.KktPoint(scale * rng.standard_normal(prob.n_y),
                      scale * rng.standard_normal(prob.n_eq))


class TestWeights:
    def test_accepts_psd(self):
        q.Weights(Q=np.zeros((2, 2)), R=np.eye(1), P=np.eye(2))

    def test_scalars_are_one_by_one_matrices(self):
        w = q.Weights(Q=2.0, R=np.float64(3.0), P=np.array(0.5))
        for got, want in ((w.Q, 2.0), (w.R, 3.0), (w.P, 0.5)):
            assert isinstance(got, np.ndarray) and got.shape == (1, 1)
            assert got[0, 0] == want

    def test_vectors_are_diagonal_matrices(self):
        got = q.Weights(Q=[1.0, 2.0], R=1.0, P=[1.0, 2.0])
        want = q.Weights(Q=np.diag([1.0, 2.0]), R=np.eye(1), P=np.diag([1.0, 2.0]))
        for name in "QRP":  # bitwise
            a, b = getattr(got, name), getattr(want, name)
            assert a.shape == b.shape and a.tobytes() == b.tobytes()

    @pytest.mark.parametrize("m, message", [
        (np.ones((2, 3)), r"Q must be a scalar, a diagonal vector or a square matrix, "
                          r"got shape \(2, 3\)"),
        (np.ones((1, 1, 1)), r"got shape \(1, 1, 1\)"),
    ])
    def test_rejects_what_is_no_square_matrix(self, m, message):
        with pytest.raises(ValueError, match=message):
            q.Weights(Q=m, R=1.0, P=m)

    def test_rejects_p_of_another_size_than_q(self):
        with pytest.raises(ValueError, match=r"P must be 2x2, got \(3, 3\)"):
            q.Weights(Q=[1.0, 1.0], R=1.0, P=[1.0, 1.0, 1.0])

    def test_rejects_indefinite_q(self):
        with pytest.raises(ValueError):
            q.Weights(Q=np.diag([1.0, -1.0]), R=np.eye(1), P=np.eye(2))

    def test_rejects_singular_r(self):
        with pytest.raises(ValueError):
            q.Weights(Q=np.eye(2), R=np.zeros((1, 1)), P=np.eye(2))

    def test_rejects_asymmetric(self):
        with pytest.raises(ValueError):
            q.Weights(Q=np.array([[1.0, 0.5], [0.0, 1.0]]), R=np.eye(1), P=np.eye(2))

    def test_accepts_large_scale_weights(self):
        # the tolerances scale with the entries: a rank-2 v v' with v ~ 1e4
        # has zero eigenvalues that eigvalsh rounds to about -1e-8, and
        # M' D M with D ~ 1e6 is asymmetric by about 1e-9
        rng = np.random.default_rng(0)
        for _ in range(20):
            v = rng.normal(scale=1e4, size=(4, 2))
            m = rng.normal(size=(4, 4))
            spd = (m.T * 10.0 ** rng.uniform(5.0, 7.0, 4)) @ m
            q.Weights(Q=v @ v.T, R=np.eye(1), P=np.eye(4))
            q.Weights(Q=np.eye(4), R=spd, P=spd)

    @pytest.mark.parametrize("which", ["Q", "P"])
    def test_rejects_large_scale_indefinite_and_asymmetric(self, which):
        bad = {"indefinite": 1e8 * np.diag([1.0, -1e-6]),
               "asymmetric": 1e6 * np.array([[1.0, 1e-6], [0.0, 1.0]])}
        for what, m in bad.items():
            weights = {"Q": np.eye(2), "R": np.eye(1), "P": np.eye(2), which: m}
            with pytest.raises(ValueError, match="semidefinite" if what == "indefinite"
                               else "symmetric"):
                q.Weights(**weights)


@pytest.mark.parametrize("horizon", [2.5, True, math.nan, 0, "3"],
                         ids=["float", "bool", "nan", "zero", "str"])
def test_horizon_is_an_integer_of_at_least_one(unit_weights, horizon):
    with pytest.raises(ValueError, match=r"^horizon must be an integer >= 1, got "):
        q.StackedProblem(models.builtin_tiny("lti"), horizon, unit_weights)


@pytest.mark.parametrize("dims", [(0, 1, 1), (1, 1.0, 1), (1, 1, True)])
def test_model_dims_are_integers_of_at_least_one(dims):
    with pytest.raises(ValueError, match=r"must be an integer >= 1, got "):
        q.ModelDims(*dims)


def test_check_y_rejects_a_column_vector(unicycle_problem):
    # like the initial state, a decision vector is 1-D, not flattened
    prob = unicycle_problem
    with pytest.raises(ValueError, match=rf"^decision vector must have length {prob.n_y}, "
                                         rf"got \({prob.n_y}, 1\)$"):
        prob.check_y(np.zeros((prob.n_y, 1)))


def test_direct_construction_checks_horizon(unit_weights):
    with pytest.raises(ValueError, match="horizon"):
        q.StackedProblem(models.builtin_tiny("lti"), 0, unit_weights)


def test_constraint_matrix_tiny_lti(tiny_lti_problem):
    g = oracles.constraint_matrix(tiny_lti_problem, np.zeros((1, 1)))
    assert_allclose(g, [[1.0, 0.0, 0.0], [-1.0, 1.0, -1.0]])


def test_constraint_matrix_unicycle_shape(unicycle_problem):
    g = oracles.constraint_matrix(unicycle_problem, np.zeros((20, 1)))
    assert g.shape == (105, 145)


@pytest.mark.parametrize("name", ALL_MODEL_IDS)
def test_constraint_matrix_full_row_rank(name):
    prob = build_problem(name, 5)
    rng = np.random.default_rng(5)
    for _ in range(100):
        rho_traj = rng.normal(scale=2.0, size=(5, prob.model.dims.n_rho))
        smallest = np.linalg.svd(oracles.constraint_matrix(prob, rho_traj), compute_uv=False).min()
        assert smallest > 1e-10


def test_fonc_residual_zero_at_tiny_lti_optimum(tiny_lti_problem):
    z = q.KktPoint(np.array([1.0, 0.5, -0.5]), np.array([-3.0, -1.0]))
    assert_allclose(oracles.fonc_residual(tiny_lti_problem, z, [1.0]), 0.0, atol=1e-14)


def test_fonc_residual_zero_at_origin(unicycle_problem):
    z = q.KktPoint(np.zeros(unicycle_problem.n_y), np.zeros(unicycle_problem.n_eq))
    assert_allclose(oracles.fonc_residual(unicycle_problem, z, np.zeros(5)), 0.0)


def test_kkt_matrix_exactly_symmetric(unicycle_problem):
    rng = np.random.default_rng(0)
    z = random_point(unicycle_problem, rng)
    j = oracles.kkt_matrix(unicycle_problem, z)
    assert np.array_equal(j, j.T)


def test_kkt_matrix_nonsingular_near_solution(unicycle_problem, unicycle_x0):
    y0 = q.initial_guess(unicycle_problem, unicycle_x0)
    tr = q.solve_ocp(unicycle_problem, unicycle_x0, y0,
                     q.SolverOptions(variant="standard", stop_tol=1e-8))
    j = oracles.kkt_matrix(unicycle_problem, tr.final)
    assert np.abs(np.linalg.eigvalsh(j)).min() > 0.0


def test_jacobians_coincide_for_lti(tiny_lti_problem):
    rng = np.random.default_rng(1)
    z = random_point(tiny_lti_problem, rng)
    assert_allclose(oracles.fonc_jacobian(tiny_lti_problem, z),
                    oracles.kkt_matrix(tiny_lti_problem, z), atol=1e-9)


@pytest.mark.parametrize("name", ALL_MODEL_IDS)
def test_fonc_jacobian_matches_finite_differences(name):
    prob = build_problem(name, 3)
    rng = np.random.default_rng(2)
    x0 = rng.normal(size=prob.n_x)
    for _ in range(20):
        z = random_point(prob, rng)

        def residual(v):
            return oracles.fonc_residual(prob, q.KktPoint(v[:prob.n_y], v[prob.n_y:]), x0)

        j_fd = oracles.fd_jacobian(residual, z.stack(), 1e-6)
        j = oracles.fonc_jacobian(prob, z)
        assert np.abs(j - j_fd).max() <= 1e-5 * max(1.0, np.abs(j_fd).max())


class TestCouplingCorrection:
    def test_zero_for_lti(self, tiny_lti_problem):
        delta = oracles.coupling_correction(tiny_lti_problem, np.array([1.0, 2.0, 3.0]))
        assert np.all(delta == 0.0)

    def test_tiny_qlpv_single_entry(self, tiny_qlpv_problem):
        # dynamics row of d[G y]/dy - G picks up -x0 from x1 - x0^2 - u0
        delta = oracles.coupling_correction(tiny_qlpv_problem, np.array([0.5, 0.0, 0.0]))
        expect = np.zeros((2, 3))
        expect[1, 0] = -0.5
        assert_allclose(delta, expect)

    def test_unicycle_heading_columns(self, unicycle_problem):
        rng = np.random.default_rng(4)
        y = rng.normal(size=unicycle_problem.n_y)
        delta = oracles.coupling_correction(unicycle_problem, y)
        dt = 0.1  # the unicycle's sampling time
        xs = unicycle_problem.states(y)
        n_eq = unicycle_problem.n_eq
        for k in range(unicycle_problem.n_horizon):
            v, phi = xs[k][2], xs[k][3]
            rows = slice(5 * (k + 1), 5 * (k + 2))  # n_x = 5, n_u = 2
            block = delta[rows, 5 * k:5 * (k + 1)]
            expect = np.zeros((5, 5))
            expect[0, 3] = dt * v * math.sin(phi)
            expect[1, 3] = -dt * v * math.cos(phi)
            assert_allclose(block, expect, atol=1e-14)
            assert np.all(delta[rows, n_eq + 2 * k:n_eq + 2 * (k + 1)] == 0.0)


@pytest.mark.parametrize("name", ALL_MODEL_IDS)
def test_linearized_constraint_identities(name):
    prob = build_problem(name, 4)
    rng = np.random.default_rng(6)
    for _ in range(100):
        y = rng.normal(scale=2.0, size=prob.n_y)
        jac, dist = oracles.linearized_constraint(prob, y)
        g = oracles.constraint_matrix(prob, prob.rho_trajectory(y))
        delta = oracles.coupling_correction(prob, y)
        assert np.abs(jac - (g + delta)).max() <= 1e-12
        assert np.abs(dist + delta).max() <= 1e-12
        assert np.abs((jac + dist) @ y - g @ y).max() <= 1e-12 * max(1.0, np.abs(g @ y).max())


def test_linearized_constraint_matches_unicycle_extension(unicycle_problem):
    # the dense Jacobian holds the exact variant's stage matrices
    rng = np.random.default_rng(8)
    y = rng.normal(size=unicycle_problem.n_y)
    jac, _ = oracles.linearized_constraint(unicycle_problem, y)
    stages = stage_data(unicycle_problem, y, "exact")
    n_eq = unicycle_problem.n_eq
    for k in range(unicycle_problem.n_horizon):
        rows = slice(5 * (k + 1), 5 * (k + 2))  # n_x = 5, n_u = 2
        assert_allclose(jac[rows, 5 * k:5 * (k + 1)], -stages.a[k], atol=1e-14)
        assert_allclose(jac[rows, n_eq + 2 * k:n_eq + 2 * (k + 1)], -stages.b[k], atol=1e-14)


@pytest.mark.parametrize("variant", stacked.VARIANTS)
@pytest.mark.parametrize("name", ALL_MODEL_IDS)
def test_assemble_g_equals_a_per_stage_slice_loop(name, variant):
    # G's blocks go in through einsum's diagonal views; a per-stage slice
    # loop places the same values bitwise
    prob = build_problem(name, 5)
    n_x, n_u = prob.n_x, prob.n_u
    y = np.random.default_rng(11).normal(size=prob.n_y)
    stages = stage_data(prob, y, variant)
    expect = np.zeros((prob.n_eq, prob.n_y))
    np.fill_diagonal(expect[:, :prob.n_eq], 1.0)
    for k in range(prob.n_horizon):
        rows = slice((k + 1) * n_x, (k + 2) * n_x)
        expect[rows, k * n_x:(k + 1) * n_x] = -stages.a[k]
        expect[rows, prob.n_eq + k * n_u:prob.n_eq + (k + 1) * n_u] = -stages.b[k]
    np.testing.assert_array_equal(oracles._assemble_g(prob, stages), expect, strict=True)


def test_cost_perturbation_zero_for_lti(tiny_lti_problem):
    y = np.array([1.0, 0.5, -0.5])
    e = stacked.cost_perturbation(tiny_lti_problem, stage_data(tiny_lti_problem, y, "exact"),
                                  stage_data(tiny_lti_problem, y, "standard"),
                                  np.array([-3.0, -1.0]))
    assert np.all(e == 0.0)


def test_cost_perturbation_tiny_qlpv_fixpoint(tiny_qlpv_problem):
    tr = q.solve_ocp(tiny_qlpv_problem, [0.5], q.initial_guess(tiny_qlpv_problem, [0.5]),
                     q.SolverOptions(variant="standard", stop_tol=1e-12))
    y = tr.final.y
    e = stacked.cost_perturbation(tiny_qlpv_problem, stage_data(tiny_qlpv_problem, y, "exact"),
                                  stage_data(tiny_qlpv_problem, y, "standard"), tr.final.lam)
    assert_allclose(e, [-0.125, 0.0, 0.0], atol=1e-12)


@pytest.mark.parametrize("name", ALL_MODEL_IDS)
def test_cost_positive_definite_on_constraint_nullspace(name):
    prob = build_problem(name, 4)
    rng = np.random.default_rng(9)
    for _ in range(10):
        rho_traj = rng.normal(size=(4, prob.model.dims.n_rho))
        g = oracles.constraint_matrix(prob, rho_traj)
        basis = scipy.linalg.null_space(g)
        reduced = basis.T @ (2.0 * oracles.weight_matrix(prob)) @ basis
        assert np.linalg.eigvalsh(reduced).min() > 0.0


@settings(max_examples=50, deadline=None)
@given(st.lists(st.floats(-5.0, 5.0), min_size=3, max_size=3))
def test_linearized_constraint_identity_property(vals):
    m = models.builtin_tiny("qlpv")
    prob = q.StackedProblem.build(m, 1, q.Weights(Q=np.eye(1), R=np.eye(1), P=np.eye(1)))
    y = np.array(vals)
    jac, dist = oracles.linearized_constraint(prob, y)
    g = oracles.constraint_matrix(prob, prob.rho_trajectory(y))
    assert np.abs((jac + dist) - g).max() <= 1e-12


@pytest.mark.parametrize("variant", ["Standard", "bogus"])
def test_unknown_variant_rejected(unicycle_problem, variant):
    y = np.zeros(unicycle_problem.n_y)
    with pytest.raises(ValueError, match="variant"):
        stage_data(unicycle_problem, y, variant)


def _band(dense, below, above):
    """The band of a dense matrix in LAPACK storage, read diagonal by
    diagonal: row ``above + i - j`` of column j holds ``[i, j]``."""
    size = len(dense)
    band = np.zeros((above + below + 1, size))
    for off in range(-above, below + 1):
        diag = np.diagonal(dense, -off)
        band[above + off, max(0, -off):max(0, -off) + len(diag)] = diag
    return band


@pytest.mark.parametrize("size,below,above", [(12, 3, 0), (14, 2, 2 + 3)],
                         ids=["dpbsv-lower", "dgbsv-with-fill"])
def test_band_index_is_the_band_of_the_blocks_placed_densely(size, below, above):
    # K = 2 blocks of each shape, in row strips of their own and at random columns
    rng = np.random.default_rng(size)
    n_source = 100
    ids, taken, blocks, row = iter(rng.permutation(n_source)), np.zeros((size, size), bool), [], 0
    for h, w in [(1, 1), (2, 3), (3, 2)]:
        row0, col0 = row + np.array([0, h]), rng.integers(0, size - w + 1, 2)
        row += 2 * h
        for r, c in zip(row0, col0):
            taken[r:r + h, c:c + w] = True
        blocks.append((row0, col0, np.array([next(ids) for _ in range(2 * h * w)]).reshape(2, h, w)))
    i, j = np.nonzero(taken)
    inside = (-above <= i - j) & (i - j <= below)
    assert inside.any() and not inside.all()  # some entries fall outside the band

    source = np.append(rng.uniform(1.0, 2.0, n_source), 0.0)
    index = stacked.band_index(size, below, above, n_source, blocks)
    dense = np.zeros((size, size))
    for row0, col0, src in blocks:
        for r, c, block in zip(row0, col0, src):
            dense[r:r + block.shape[0], c:c + block.shape[1]] = source[block]
    assert index.shape == (size, above + below + 1) and not index.flags.writeable
    assert np.array_equal(source.take(index).T, _band(dense, below, above))
    # the entries outside the band are dropped, and every other band entry reads zero
    placed = {int(s) for _, _, src in blocks for s in src.ravel()}
    in_band = {int(s) for s in index.ravel()} - {n_source}
    assert in_band < placed and len(in_band) == inside.sum()
    assert (index == n_source).sum() == index.size - inside.sum()
