import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from chdbc import analysis, assembly, integrator
from chdbc.integrator import Stepper, bdf_scheme, bdf_step, run, step_count
from chdbc.mesh import generate_disk_mesh, import_mesh
from chdbc.problems import (ProblemSpec, evolution_problem, manufactured_linear,
                            manufactured_nonlinear, zero_field)
from chdbc.saddle import build_step_matrix, nested_dissection_order

MESH_WITH_CENTER_NODE = """\
MESH v1
NODES 3
0.0 0.0
1.0 0.0
0.5 0.5
TRIANGLES 1
0 1 2
BOUNDARY_EDGES 3
0 1
1 2
2 0
"""

LINEAR = ProblemSpec()


def _nonlinear(F):
    return ProblemSpec(nonlinearity=F)


def _scalar_system(m, a, ratio):
    return build_step_matrix(sp.csr_matrix(np.array([[m]])),
                             sp.csr_matrix(np.array([[a]])), ratio, np.arange(1))


def test_backward_euler_scalar_decay():
    # M = A = [1], zero forcing: (1/tau)(u1 - u0) + w1 = 0, w1 = u1
    tau, u0 = 0.1, 0.7
    K = _scalar_system(1.0, 1.0, 1.0 / tau)
    M = sp.csr_matrix(np.array([[1.0]]))
    u1, w1 = bdf_step(LINEAR, bdf_scheme(1), K, M, [np.array([u0])],
                      np.zeros(1), np.zeros(1))
    assert u1[0] == pytest.approx(u0 / (1 + tau), rel=1e-14)
    assert w1[0] == pytest.approx(u1[0], rel=1e-14)


def test_zero_history_zero_forcing_stays_zero():
    K = _scalar_system(1.0, 1.0, 10.0)
    M = sp.csr_matrix(np.array([[1.0]]))
    u1, w1 = bdf_step(LINEAR, bdf_scheme(1), K, M, [np.zeros(1)],
                      np.zeros(1), np.zeros(1))
    assert u1[0] == 0.0 and w1[0] == 0.0


def test_nonlinear_step_with_zero_map_bit_matches_linear():
    mesh = generate_disk_mesh(20, 1.0)
    M = assembly.assemble_mass(mesh)
    A = assembly.assemble_stiffness(mesh)
    scheme = bdf_scheme(3)
    K = build_step_matrix(M, A, scheme.delta[0] / 0.01,
                          nested_dissection_order(mesh.nodes, M))
    rng = np.random.default_rng(1)
    hist = [rng.standard_normal(mesh.node_count) for _ in range(3)]
    b1 = rng.standard_normal(mesh.node_count)
    b2 = rng.standard_normal(mesh.node_count)
    u_lin, w_lin = bdf_step(LINEAR, scheme, K, M, hist, b1, b2)
    # a nonlinear problem may not use problems.zero_map itself
    u_non, w_non = bdf_step(_nonlinear(lambda u: 0.0 * u), scheme, K, M,
                            hist, b1, b2)
    np.testing.assert_array_equal(u_lin, u_non)
    np.testing.assert_array_equal(w_lin, w_non)


def test_constant_history_kills_double_well_term():
    mesh = generate_disk_mesh(20, 1.0)
    M = assembly.assemble_mass(mesh)
    A = assembly.assemble_stiffness(mesh)
    scheme = bdf_scheme(3)
    K = build_step_matrix(M, A, scheme.delta[0] / 0.01,
                          nested_dissection_order(mesh.nodes, M))
    ones = np.ones(mesh.node_count)
    hist = [ones, ones, ones]
    b1 = np.zeros(mesh.node_count)
    b2 = np.zeros(mesh.node_count)
    F = lambda u: u ** 3 - u  # extrapolant is 1 (sum gamma = 1), F(1) = 0
    u_non, _ = bdf_step(_nonlinear(F), scheme, K, M, hist, b1, b2)
    u_lin, _ = bdf_step(LINEAR, scheme, K, M, hist, b1, b2)
    np.testing.assert_array_equal(u_non, u_lin)


def test_linearly_implicit_scalar_quadratic_hand_solve():
    # u' step with F(u) = u^2: u1 = (u0 - tau*u0^2) / (1 + tau)
    tau, u0 = 0.1, 0.7
    K = _scalar_system(1.0, 1.0, 1.0 / tau)
    M = sp.csr_matrix(np.array([[1.0]]))
    u1, _ = bdf_step(_nonlinear(lambda u: u * u), bdf_scheme(1), K, M,
                     [np.array([u0])], np.zeros(1), np.zeros(1))
    assert u1[0] == pytest.approx((u0 - tau * u0 ** 2) / (1 + tau), rel=1e-14)


def test_step_requires_exact_history_length():
    K = _scalar_system(1.0, 1.0, 1.0)
    M = sp.csr_matrix(np.array([[1.0]]))
    with pytest.raises(ValueError, match="history"):
        bdf_step(LINEAR, bdf_scheme(2), K, M, [np.zeros(1)], np.zeros(1),
                 np.zeros(1))


def test_step_aborts_on_a_non_finite_solution():
    class NaNSolve:  # a step matrix whose solve has blown up
        delta0_over_tau = 1.0

        def solve(self, b):
            return np.full_like(b, np.nan)

    M = sp.csr_matrix(np.eye(2))
    with pytest.raises(ValueError, match="non-finite solution"):
        bdf_step(LINEAR, bdf_scheme(1), NaNSolve(), M, [np.zeros(2)],
                 np.zeros(2), np.zeros(2))


def test_exact_starting_values_sample_the_solution():
    mesh = import_mesh(MESH_WITH_CENTER_NODE)
    tau, k = 0.0025, 3
    # (k - 1) steps: the stream holds the k exact starts and nothing else
    stepper = Stepper(manufactured_linear(), mesh, tau, bdf_scheme(k))
    levels = list(stepper.stream(k - 1, stepper.starts("exact")))
    assert len(levels) == k
    for j, (_, _, u, w) in enumerate(levels):
        assert u[2] == pytest.approx(0.25 * math.exp(-j * tau), rel=1e-14)
        np.testing.assert_array_equal(u, w)


def test_exact_starts_pair_exact_u_with_u_and_exact_w_with_w_bitwise():
    # both manufactured problems have exact_u is exact_w; this one does not
    problem = dataclasses.replace(manufactured_linear(),
                                  exact_w=lambda x, y, t: 2 * np.exp(-t) * x * y)
    mesh, tau, k = generate_disk_mesh(40, 1.0), 0.01, 3
    starts = list(Stepper(problem, mesh, tau, bdf_scheme(k)).starts("exact"))
    assert len(starts) == k
    for j, (u, w) in enumerate(starts):
        assert u.tobytes() == assembly.nodal_interpolate(problem.exact_u, mesh, j * tau).tobytes()
        assert w.tobytes() == assembly.nodal_interpolate(problem.exact_w, mesh, j * tau).tobytes()
        assert not np.array_equal(u, w)


def test_exact_mode_requires_exact_solution():
    mesh = generate_disk_mesh(20, 1.0)
    with pytest.raises(ValueError, match="exact"):
        run(evolution_problem(), mesh, 0.01, 0.02, bdf_scheme(2),
            start_mode="exact")
    with pytest.raises(ValueError, match="mode"):
        run(manufactured_linear(), mesh, 0.01, 0.02, bdf_scheme(2),
            start_mode="midpoint")


def test_bootstrap_k1_is_initial_data_without_w():
    mesh = generate_disk_mesh(40, 1.0)
    problem = evolution_problem(seed=5)
    stepper = Stepper(problem, mesh, 0.01, bdf_scheme(1))
    n, t, u0, w0 = next(stepper.stream(1, stepper.starts("bootstrap")))
    assert (n, t) == (0, 0.0)
    assert set(np.unique(u0)) <= {-1.0, 1.0}
    np.testing.assert_array_equal(
        u0, assembly.nodal_interpolate(problem.u0, mesh, 0.0))
    # no step reads w^0, so a bootstrap does not compute it
    assert w0 is None


def test_bootstrap_start_error_stays_close_to_exact_start():
    problem = manufactured_linear()
    mesh = generate_disk_mesh(40, 1.0)
    scheme = bdf_scheme(3)
    e_exact = analysis.final_error(
        run(problem, mesh, 0.0025, 1.0, scheme, start_mode="exact"),
        problem, mesh).err_L2
    e_boot = analysis.final_error(
        run(problem, mesh, 0.0025, 1.0, scheme, start_mode="bootstrap"),
        problem, mesh).err_L2
    assert e_boot <= 10.0 * e_exact


def test_zero_problem_yields_zero_trajectory():
    problem = ProblemSpec()
    mesh = generate_disk_mesh(20, 1.0)
    traj = run(problem, mesh, 0.01, 0.2, bdf_scheme(2), start_mode="bootstrap")
    stepper = Stepper(problem, mesh, 0.01, bdf_scheme(2))
    for n, _, u, w in stepper.stream(20, stepper.starts("bootstrap")):
        assert np.all(u == 0.0)
        assert w is None if n == 0 else np.all(w == 0.0)
    assert np.all(traj.u_final == 0.0) and np.all(traj.w_final == 0.0)
    assert len(traj.times) == 21
    np.testing.assert_allclose(np.diff(traj.times), 0.01, rtol=1e-12)


def test_refinement_monotonicity_at_final_time():
    problem = manufactured_linear()
    scheme = bdf_scheme(3)
    errs = {}
    for i in (2, 3):
        mesh = generate_disk_mesh(2 ** i * 10, 1.0)
        traj = run(problem, mesh, 0.0025, 1.0, scheme)
        errs[i] = analysis.final_error(traj, problem, mesh).err_L2
    assert errs[3] < errs[2]


def test_mass_is_conserved_without_u_forcing():
    # first block row gives sum_j delta_j (1^T M u^{n-j}) = -tau 1^T A w = 0
    problem = evolution_problem(seed=3)
    mesh = generate_disk_mesh(80, 1.0)
    traj = run(problem, mesh, 1e-5, 100e-5, bdf_scheme(3), start_mode="bootstrap")
    drift = np.abs(traj.mass - traj.mass[0]).max()
    assert drift <= 1e-10 * abs(traj.mass[0])
    assert len(traj.times) == 101


# Largest tau * lambda_max(M^-1 A) * max|F'| drawn per k. Over 12 steps
# from 'exact' starts (u0 at every level), on 105 cases (nodes 10-160,
# strength 0.1-10, three seeds), BDF4 diverged in 1 case at 0.2 and BDF5
# in 18 at 0.1; neither diverged at 0.15 and 0.05.
MAX_MARGIN = {1: 0.5, 2: 0.5, 3: 0.5, 4: 0.1, 5: 0.04}


@settings(max_examples=15, deadline=None, derandomize=True)
@given(nodes=st.integers(10, 160), strength=st.floats(0.1, 10.0),
       share=st.floats(0.04, 1.0), mode=st.sampled_from(["bootstrap", "exact"]),
       seed=st.integers(0, 2 ** 64 - 1), data=st.data())
def test_evolution_conserves_mass_and_solves_each_step(nodes, strength, share,
                                                       mode, seed, data):
    # tau * lambda_max(M^-1 A) * max|F'| = share * MAX_MARGIN[k] keeps the
    # extrapolated schemes inside their stability region; F' = 4 s (3u^2 - 1)
    # is at most 8 s in size for |u| <= 1. The 'exact' starts interpolate
    # stated fields: here u0 at every start, so all k starts carry its mass.
    # Every example runs each k the theory covers, 1..5.
    problem = evolution_problem(strength=strength, seed=seed)
    if mode == "exact":
        problem = dataclasses.replace(problem, exact_u=problem.u0,
                                      exact_w=zero_field)
    mesh = generate_disk_mesh(nodes, 1.0)
    M, A = assembly.assemble_mass(mesh), assembly.assemble_stiffness(mesh)
    lam = scipy.linalg.eigh(A.toarray(), M.toarray(), eigvals_only=True)[-1]
    for k in range(1, 6):
        tau = share * MAX_MARGIN[k] / (lam * 8.0 * strength)
        n_steps = data.draw(st.integers(k, 12), label=f"n_steps, k={k}")
        scheme = bdf_scheme(k)
        stepper = Stepper(problem, mesh, tau, scheme)
        levels = [(u, w) for _, _, u, w in stepper.stream(n_steps, stepper.starts(mode))]
        us = [u for u, _ in levels]

        # 1^T M u of a +/-1 field can nearly cancel; measure against 1^T M |u0|
        scale = stepper.mass(np.abs(us[0]))
        drift = max(abs(stepper.mass(u) - stepper.mass(us[0])) for u in us)
        assert drift <= 1e-10 * scale, k

        # K x = b for a sampled main-loop step n, with b rebuilt from the history
        n = data.draw(st.integers(k, n_steps), label=f"step, k={k}")
        recent = us[n - k:n][::-1]
        K = build_step_matrix(stepper.M, stepper.A, scheme.delta[0] / tau,
                              stepper.order).matrix
        tail = sum(d * u for d, u in zip(scheme.delta[1:], recent))
        extrapolant = sum(g * u for g, u in zip(scheme.gamma, recent))
        b = np.concatenate([-(stepper.M @ tail) / tau,
                            stepper.M @ problem.nonlinearity(extrapolant)])
        residual = np.abs(K @ np.concatenate(levels[n]) - b).max()
        assert residual <= 1e-9 * np.abs(b).max(), k


def test_energy_seminorm_decays_for_backward_euler():
    # linear homogeneous run: (1/2) u^T A u is nonincreasing step by step
    mesh = generate_disk_mesh(80, 1.0)
    u0 = evolution_problem(seed=11).u0
    problem = ProblemSpec(u0=u0)
    stepper = Stepper(problem, mesh, 0.005, bdf_scheme(1))
    levels = stepper.stream(step_count(0.005, 200 * 0.005, 1),
                            stepper.starts("bootstrap"))
    A = assembly.assemble_stiffness(mesh)
    e = [0.5 * float(u @ (A @ u)) for _, _, u, _ in levels]
    diffs = np.diff(e)
    assert (diffs <= 1e-12).all()
    assert e[-1] < e[0]


def test_bdf3_difference_quotient_truncation():
    # one-step check from exact data: the BDF time quotient of interpolated
    # exact values matches the interpolated time derivative to O(tau^3)
    problem = manufactured_linear()
    mesh = generate_disk_mesh(80, 1.0)
    tau = 1e-3
    delta = bdf_scheme(3).delta
    tn = 3 * tau
    quotient = sum(
        delta[j] * assembly.nodal_interpolate(problem.exact_u, mesh, tn - j * tau)
        for j in range(4)
    ) / tau
    exact_rate = assembly.nodal_interpolate(
        lambda x, y, t: -np.exp(-t) * x * y, mesh, tn)
    assert np.abs(quotient - exact_rate).max() <= 1e-6


@pytest.mark.parametrize("k,window", [(1, (0.85, 1.35)), (2, (1.7, 2.3))])
def test_temporal_self_convergence_orders(k, window):
    problem = manufactured_linear()
    mesh = generate_disk_mesh(40, 1.0)
    M = assembly.assemble_mass(mesh)
    scheme = bdf_scheme(k)
    tau_ref = 0.0025
    ref_stepper = Stepper(problem, mesh, tau_ref, scheme)
    ref = [(u, w) for _, _, u, w in ref_stepper.stream(
        step_count(tau_ref, 1.0, k), ref_stepper.starts("exact"))]
    t_off = 0.08
    i0 = round(t_off / tau_ref)
    taus = [0.04, 0.02, 0.01]
    errs = []
    for tau in taus:
        stride = round(tau / tau_ref)
        starts = [ref[i0 + j * stride] for j in range(k)]
        stepper = Stepper(problem, mesh, tau, scheme, t_off)
        n_steps = step_count(tau, 1.0 - t_off, scheme.k)
        for _, _, u, _ in stepper.stream(n_steps, starts):
            pass  # u ends as the level at t = 1
        errs.append(analysis.l2_norm(M, u - ref[-1][0]))
    for e1, e2, t1, t2 in zip(errs, errs[1:], taus, taus[1:]):
        order = math.log(e1 / e2) / math.log(t1 / t2)
        assert window[0] <= order <= window[1]


def test_run_rejects_non_dividing_tau():
    with pytest.raises(ValueError, match="divide"):
        run(manufactured_linear(), generate_disk_mesh(20, 1.0), 0.3, 1.0,
            bdf_scheme(1))


def test_run_names_order_and_step_count_when_the_span_is_too_short():
    # tau divides T, but BDF3 needs two steps to hold its starting values
    with pytest.raises(ValueError, match=r"gives 1 step\(s\).*BDF3 needs at least 2"):
        run(manufactured_linear(), generate_disk_mesh(20, 1.0), 0.5, 0.5,
            bdf_scheme(3))


def test_run_aborts_with_step_index_on_blowup():
    # extrapolated k=3 far outside its stability region
    problem = evolution_problem(seed=1)
    mesh = generate_disk_mesh(160, 1.0)
    with pytest.raises(RuntimeError, match="step"):
        run(problem, mesh, 0.01, 1.0, bdf_scheme(3), start_mode="bootstrap")


def test_bootstrap_abort_names_the_start_and_its_substep():
    # k=3, tau=0.1: m=5 BDF1 substeps of 0.02 toward each start; the one
    # toward step 2 (t = 0.2) diverges at its second substep, t = 0.14
    problem = evolution_problem(strength=1000.0)
    mesh = generate_disk_mesh(40, 10.0)
    with pytest.raises(RuntimeError,
                       match=r"^aborted at step 2, BDF1 substep 2 of 5 \(t = 0\.14\): "):
        run(problem, mesh, 0.1, 1.0, bdf_scheme(3), start_mode="bootstrap")


def test_trajectory_diagnostics_shapes():
    problem = evolution_problem(seed=2)
    mesh = generate_disk_mesh(40, 1.0)
    traj = run(problem, mesh, 1e-5, 20e-5, bdf_scheme(2), start_mode="bootstrap")
    assert traj.energy is not None
    assert len(traj.mass) == len(traj.times) == len(traj.energy) == 21
    assert traj.snapshots == []  # nothing kept unless asked for
    lin = run(manufactured_linear(), mesh, 0.01, 0.1, bdf_scheme(2))
    assert lin.energy is None  # no potential declared


def test_run_memory_does_not_grow_with_the_step_count():
    # 100 against 400 steps at 640 nodes. Storing every u and w would add
    # 2 N doubles per step, about 3 MB over the 300 extra steps.
    problem = manufactured_linear()
    mesh = generate_disk_mesh(640, 1.0)
    peaks = []
    for T in (0.25, 1.0):
        tracemalloc.start()
        try:
            run(problem, mesh, 0.0025, T, bdf_scheme(3))
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] - peaks[0] < 1 << 20, peaks


def test_run_keeps_u_at_exactly_the_named_steps_in_step_order():
    problem = evolution_problem(seed=4)
    mesh = generate_disk_mesh(40, 1.0)
    tau, scheme = 1e-5, bdf_scheme(2)
    traj = run(problem, mesh, tau, 10 * tau, scheme, keep=[7, 0, 3, 10, 3])
    stepper = Stepper(problem, mesh, tau, scheme)
    us = [u for _, _, u, _ in stepper.stream(10, stepper.starts("bootstrap"))]
    assert len(traj.snapshots) == 4
    for n, u in zip([0, 3, 7, 10], traj.snapshots):
        np.testing.assert_array_equal(u, us[n])


def test_run_final_state_is_the_last_level_of_the_stream():
    problem = manufactured_linear()
    mesh = generate_disk_mesh(40, 1.0)
    tau, scheme = 0.01, bdf_scheme(3)
    traj = run(problem, mesh, tau, 0.1, scheme, keep=[10])
    stepper = Stepper(problem, mesh, tau, scheme)
    *_, (n, t, u, w) = stepper.stream(10, stepper.starts("exact"))
    assert (n, t) == (10, traj.times[-1])
    np.testing.assert_array_equal(traj.u_final, u)
    np.testing.assert_array_equal(traj.w_final, w)
    np.testing.assert_array_equal(traj.snapshots[0], u)


@pytest.mark.parametrize("bad", [-1, 11, 2.5])
def test_run_names_a_step_it_cannot_keep_before_assembling(monkeypatch, bad):
    def no_assembly(*args):
        raise AssertionError("run assembled before checking keep")

    mesh = generate_disk_mesh(20, 1.0)
    monkeypatch.setattr(integrator, "Stepper", no_assembly)
    with pytest.raises(ValueError, match=rf"step {bad}: the run has steps 0\.\.10"):
        run(manufactured_linear(), mesh, 0.01, 0.1, bdf_scheme(2), keep=[3, bad])


@pytest.mark.parametrize("problem", [manufactured_linear(), manufactured_nonlinear()],
                         ids=["linear", "nonlinear"])
def test_block_loads_equal_the_per_time_loads_bitwise(problem):
    mesh = generate_disk_mesh(320, 1.0)
    stepper = Stepper(problem, mesh, 0.0025, bdf_scheme(3))
    times = 0.0 + np.arange(3, 43) * 0.0025
    blocks = stepper.loads(times)
    forcings = ((problem.f1_bulk, problem.f1_surf), (problem.f2_bulk, problem.f2_surf))
    for block, (f_bulk, f_surf) in zip(blocks, forcings):
        assert block.shape == (mesh.node_count, 40)
        for col, t in enumerate(times.tolist()):
            one = (assembly.load_vector(stepper.M_bulk, assembly.nodal_interpolate(f_bulk, mesh, t))
                   + assembly.load_vector(stepper.M_surf, assembly.nodal_interpolate(f_surf, mesh, t)))
            assert block[:, col].tobytes() == one.tobytes(), (col, t)


@pytest.mark.parametrize("k, start_mode", [(3, "exact"), (2, "bootstrap")])
def test_final_state_does_not_depend_on_the_load_block_size(monkeypatch, k, start_mode):
    # 320 nodes: 12-step blocks by default; 100 steps, and 20 substeps per
    # bootstrap start, span several blocks
    problem, mesh = manufactured_nonlinear(), generate_disk_mesh(320, 1.0)
    assert integrator.LOAD_BLOCK_VALUES // mesh.node_count == 12

    def final(block_values):
        monkeypatch.setattr(integrator, "LOAD_BLOCK_VALUES", block_values)
        traj = run(problem, mesh, 0.0025, 0.25, bdf_scheme(k), start_mode=start_mode)
        return traj.u_final.tobytes(), traj.w_final.tobytes()

    default = final(integrator.LOAD_BLOCK_VALUES)
    assert final(1) == default  # one step per block
    assert final(2 ** 30) == default  # one block


def _same_csr(a, b):
    return (a.format == b.format == "csr" and a.shape == b.shape
            and a.indptr.tobytes() == b.indptr.tobytes()
            and a.indices.tobytes() == b.indices.tobytes()
            and a.data.tobytes() == b.data.tobytes())


@pytest.mark.parametrize("problem", [manufactured_linear(), evolution_problem()],
                         ids=["forced", "unforced"])
def test_stepper_mass_is_the_one_assemble_mass(monkeypatch, problem):
    # the solver steps with the very matrix the brute-force oracle checks
    assemble_mass, built = assembly.assemble_mass, []

    def recording(mesh):
        built.append(assemble_mass(mesh))
        return built[-1]

    monkeypatch.setattr(assembly, "assemble_mass", recording)
    mesh = generate_disk_mesh(160, 1.0)
    stepper = Stepper(problem, mesh, 0.01, bdf_scheme(2))
    assert len(built) == 1 and stepper.M is built[0]
    assert _same_csr(stepper.M, assemble_mass(mesh))


def test_a_forced_stepper_holds_the_assembled_mass_parts_bitwise():
    mesh = generate_disk_mesh(160, 1.0)
    stepper = Stepper(ProblemSpec(f2_surf=lambda x, y, t: 1.0), mesh, 0.01, bdf_scheme(1))
    assert _same_csr(stepper.M_bulk, assembly.assemble_bulk_mass(mesh))
    assert _same_csr(stepper.M_surf, assembly.assemble_surface_mass(mesh))


def test_a_constant_forcing_loads_like_its_interpolant():
    mesh = generate_disk_mesh(40, 1.0)
    stepper = Stepper(ProblemSpec(f1_bulk=lambda x, y, t: 1.0), mesh, 0.01, bdf_scheme(1))
    b1, b2 = stepper.loads(np.array([0.0, 0.01, 0.02]))
    expected = stepper.M_bulk @ np.ones(mesh.node_count)
    for col in range(3):
        np.testing.assert_array_equal(b1[:, col], expected)
    assert not b2.any()


def test_a_non_finite_forcing_aborts_naming_its_node_and_time():
    mesh = generate_disk_mesh(40, 1.0)
    f = lambda x, y, t: np.where((t > 0.045) & (np.arange(len(x))[:, None] == 7),
                                 np.nan, 0.0 * x * t)
    with pytest.raises(ValueError, match=r"field returned nan at node 7, t = 0.05\b"):
        run(ProblemSpec(f2_surf=f), mesh, 0.01, 0.1, bdf_scheme(1))


def _recording_f1_bulk(problem, seen):
    # the problem with its f1_bulk wrapped to record every t it is given
    def f1_bulk(x, y, t):
        seen.extend(np.ravel(t).tolist())
        return problem.f1_bulk(x, y, t)

    return dataclasses.replace(problem, f1_bulk=f1_bulk)


def test_stream_steps_and_loads_at_t_start_plus_n_tau_bitwise():
    # 320 nodes: 40 steps in 12-step load blocks
    tau, t_start, n_steps = 0.01, 0.04, 40
    seen = []
    problem = _recording_f1_bulk(manufactured_linear(), seen)
    stepper = Stepper(problem, generate_disk_mesh(320, 1.0), tau, bdf_scheme(3), t_start)
    times = [t for _, t, _, _ in stepper.stream(n_steps, stepper.starts("exact"))]
    expected = [t_start + n * tau for n in range(n_steps + 1)]
    assert times == expected
    assert set(seen) == set(expected[3:])


def test_bootstrap_substeps_load_at_their_own_grid_bitwise():
    tau, k = 0.01, 3
    seen = []
    problem = _recording_f1_bulk(manufactured_linear(), seen)
    stepper = Stepper(problem, generate_disk_mesh(320, 1.0), tau, bdf_scheme(k))
    assert len(list(stepper.starts("bootstrap"))) == k
    m = integrator._bootstrap_substeps(tau, k)
    assert m == 22  # two 12-step load blocks per start
    assert seen == [(j - 1) * tau + s * (tau / m)
                    for j in range(1, k) for s in range(1, m + 1)]


def test_exact_starts_sample_the_solution_at_t_start_plus_j_tau_bitwise():
    tau, t_start, k = 0.01, 0.04, 3
    problem, mesh = manufactured_linear(), generate_disk_mesh(80, 1.0)
    stepper = Stepper(problem, mesh, tau, bdf_scheme(k), t_start)
    levels = list(stepper.stream(k - 1, stepper.starts("exact")))
    assert [(n, t) for n, t, _, _ in levels] == [(j, t_start + j * tau) for j in range(k)]
    for j, (_, _, u, w) in enumerate(levels):
        t = t_start + j * tau
        assert u.tobytes() == assembly.nodal_interpolate(problem.exact_u, mesh, t).tobytes()
        assert w.tobytes() == assembly.nodal_interpolate(problem.exact_w, mesh, t).tobytes()


@pytest.mark.parametrize("k", [2, 3])
def test_bootstrap_starts_from_u0_at_t_start_and_loads_from_there_bitwise(k):
    tau, t_start = 0.01, 0.5
    seen = []
    problem = _recording_f1_bulk(manufactured_linear(), seen)
    mesh = generate_disk_mesh(80, 1.0)
    stepper = Stepper(problem, mesh, tau, bdf_scheme(k), t_start)
    u0, _ = next(stepper.starts("bootstrap"))
    assert u0.tobytes() == assembly.nodal_interpolate(problem.u0, mesh, t_start).tobytes()
    assert len(list(stepper.starts("bootstrap"))) == k
    m = integrator._bootstrap_substeps(tau, k)
    assert seen == [t_start + (j - 1) * tau + s * (tau / m)
                    for j in range(1, k) for s in range(1, m + 1)]


@pytest.mark.parametrize("n_steps", [0, 1])
def test_stream_refuses_fewer_steps_than_its_starting_values_fill(n_steps):
    stepper = Stepper(manufactured_linear(), generate_disk_mesh(20, 1.0), 0.01,
                      bdf_scheme(3))
    levels = stepper.stream(n_steps, stepper.starts("exact"))
    with pytest.raises(ValueError, match=rf"n_steps={n_steps} .*k - 1 = 2 .*BDF3"):
        next(levels)
