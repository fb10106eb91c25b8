"""BDF time stepping for the coupled bulk/surface system.

Classical k-step BDF for linear problems; for nonlinear problems the
linearly implicit variant evaluates the nonlinearity at the extrapolated
value built from the k previous steps, so every step solves one constant
linear saddle system. `bdf_step` is that step. A `Stepper` feeds it for the
starting values and for the main loop and streams the time levels; `run`
drives that stream into a `Trajectory` of diagnostics and kept states.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import ceil, comb, inf, isfinite
from typing import Iterable, Iterator, List, Optional, Sequence, Tuple

import numpy as np
import scipy.sparse as sp

from . import assembly
from .mesh import Mesh2D
from .problems import ProblemSpec, zero_field
from .saddle import StepMatrix, build_step_matrix, nested_dissection_order

MAX_ORDER = 5
BOOTSTRAP_SUBSTEP_CAP = 1000
# Forcing values per load block: a block spans LOAD_BLOCK_VALUES // N steps
# (at least one), so each (N, S) block array holds 32 KiB.
LOAD_BLOCK_VALUES = 2 ** 12


def _delta_fractions(k: int) -> List[Fraction]:
    # delta(xi) = sum_{l=1..k} (1/l) (1 - xi)^l, expanded exactly
    co = [Fraction(0)] * (k + 1)
    for l in range(1, k + 1):
        for j in range(l + 1):
            co[j] += Fraction(1, l) * comb(l, j) * (-1) ** j
    return co

@dataclass(frozen=True)
class BDFScheme:
    """Step count with method and extrapolation coefficients."""

    k: int
    delta: np.ndarray
    gamma: np.ndarray


def bdf_scheme(k: int) -> BDFScheme:
    """The k-step BDF scheme, the one source of its coefficients.

    delta = (delta_0, ..., delta_k) are the method's and gamma = (gamma_0,
    ..., gamma_{k-1}) the extrapolant's, each the double nearest its exact
    rational value. k must be an integer in [1, MAX_ORDER].
    """
    if not isinstance(k, (int, np.integer)) or not 1 <= k <= MAX_ORDER:
        raise ValueError(f"BDF order k must be an integer in [1, {MAX_ORDER}], got {k}")
    # gamma(xi) = (1 - (1 - xi)^k) / xi = sum_j (-1)^j C(k, j+1) xi^j
    gamma = [(-1) ** j * comb(k, j + 1) for j in range(k)]
    return BDFScheme(k=k, delta=np.array([float(c) for c in _delta_fractions(k)]),
                     gamma=np.array(gamma, dtype=float))


@dataclass
class Trajectory:
    """What one run keeps: per-step diagnostics, the final state and snapshots.

    times, mass and energy (None when the problem has no potential) hold one
    entry per time level; u_final and w_final are the last level, and
    snapshots holds u at each step the caller asked `run` to keep, in step
    order. M and A are the run's mass (bulk plus surface) and stiffness
    matrices, which the error norms reuse.
    """

    times: np.ndarray
    mass: np.ndarray
    energy: Optional[np.ndarray]
    u_final: np.ndarray
    w_final: np.ndarray
    snapshots: List[np.ndarray]
    M: sp.spmatrix
    A: sp.spmatrix


def step_index(t: float, tau: float) -> int:
    """The n with n tau = t to within 1e-12 max(1, |t|): the one time-grid rule."""
    if not (0 < tau < inf):
        raise ValueError(f"tau must be positive and finite, got {tau}")
    if not isfinite(t / tau):
        raise ValueError(f"time {t} is not a finite multiple of tau={tau}")
    n = round(t / tau)
    if abs(n * tau - t) > 1e-12 * max(1.0, abs(t)):
        raise ValueError(f"tau={tau} does not divide the time {t}")
    return n


def step_count(tau: float, span: float, k: int) -> int:
    """Number of steps of size tau in span, by the `step_index` rule.

    The starting values fill the first k-1 steps, so a k-step run needs at
    least k-1 steps, and every run at least one.
    """
    n_steps = step_index(span, tau)
    need = max(1, k - 1)
    if n_steps < need:
        raise ValueError(f"tau={tau} gives {n_steps} step(s) over the time span "
                         f"{span}, but BDF{k} needs at least {need}")
    return n_steps


def bdf_step(problem: ProblemSpec, scheme: BDFScheme, K: StepMatrix, M,
             recent: Sequence[np.ndarray], b1: np.ndarray,
             b2: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """One k-step BDF step; every step of every run is solved here.

    `recent` holds the k previous values of u, newest first. The first block
    of the right-hand side is b1 - (1/tau) M sum_j delta_j u^{n-j}; 1/tau is
    recovered from the scalar delta0/tau stored in the step matrix. For a
    nonlinear problem b2 gains M F(sum_j gamma_j u^{n-j-1}), the
    nonlinearity at the extrapolant, so no nonlinear solve happens. Raises
    ValueError when the solution is not finite.
    """
    k = scheme.k
    if len(recent) != k:
        raise ValueError(f"history must hold exactly {k} vectors, got {len(recent)}")
    if problem.kind == "nonlinear":
        extrapolant = sum((g * u for g, u in zip(scheme.gamma[1:], recent[1:])),
                          scheme.gamma[0] * recent[0])
        b2 = b2 + assembly.nonlinearity_vector(M, problem.nonlinearity, extrapolant)
    tail = sum((d * u for d, u in zip(scheme.delta[2:], recent[1:])),
               scheme.delta[1] * recent[0])
    inv_tau = K.delta0_over_tau / scheme.delta[0]
    u, w = K.solve(np.concatenate([b1 - inv_tau * (M @ tail), b2])).reshape(2, -1)
    if not np.isfinite(u).all():
        raise ValueError("non-finite solution; the extrapolated scheme is "
                         "likely outside its stability region")
    return u, w


def _bootstrap_substeps(tau: float, k: int) -> int:
    return min(BOOTSTRAP_SUBSTEP_CAP, max(1, ceil(tau ** (-(k - 1) / k))))


class Stepper:
    """One problem on one mesh with one step size and scheme, from t_start.

    Built once, it owns M and A (and M's bulk and surface parts when the
    problem has a forcing), the mass weights, the load evaluator and the
    node order every factorization eliminates in. Level n lies at t =
    t_start + n tau, the starting values included. `stream` factorizes the
    step matrix and yields the time levels one at a time.
    """

    def __init__(self, problem: ProblemSpec, mesh: Mesh2D, tau: float,
                 scheme: BDFScheme, t_start: float = 0.0):
        self.problem, self.mesh, self.tau, self.scheme = problem, mesh, tau, scheme
        self.t_start = t_start
        self.M = assembly.assemble_mass(mesh)
        self.A = assembly.assemble_stiffness(mesh)
        # 1^T M: mass and the potential part of the energy integrate against it
        self.weights = np.asarray(self.M.sum(axis=0)).ravel()
        self.order = nested_dissection_order(mesh.nodes, self.M)
        self._forcings = ((problem.f1_bulk, problem.f1_surf),
                          (problem.f2_bulk, problem.f2_surf))
        # M's (bulk, surface) parts, which only the loads read: None unforced
        self.M_bulk = self.M_surf = None
        if any(f is not zero_field for pair in self._forcings for f in pair):
            self.M_bulk = assembly.assemble_bulk_mass(mesh)
            self.M_surf = assembly.assemble_surface_mass(mesh)

    def loads(self, times: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """The loads (b1, b2) at the S given times, each of shape (N, S).

        Forcing pairs live on (bulk, surface), so each load is
        M_bulk @ F_bulk + M_surf @ F_surf, with each forcing evaluated once
        on the node x time grid. Zero forcings are never evaluated.
        """
        if self.M_bulk is None:
            zero = np.broadcast_to(0.0, (self.mesh.node_count, len(times)))
            return zero, zero
        b1, b2 = (
            assembly.load_vector(self.M_bulk, assembly.nodal_interpolate(f_bulk, self.mesh, times))
            + assembly.load_vector(self.M_surf, assembly.nodal_interpolate(f_surf, self.mesh, times))
            for f_bulk, f_surf in self._forcings
        )
        return b1, b2

    def mass(self, u: np.ndarray) -> float:
        """The conserved scalar 1^T M u (bulk plus boundary content)."""
        return float(self.weights @ u)

    def energy(self, u: np.ndarray) -> float:
        """Discrete Ginzburg-Landau energy (1/2) u^T A u + 1^T M W(u).

        The potential is interpolated at the nodes before integration,
        matching the assembly convention for nonlinear terms. A diverging
        run overflows to inf here a step or two before the step kernel
        aborts it, so overflow is not warned about.
        """
        W = self.problem.potential
        with np.errstate(over="ignore", invalid="ignore"):
            return float(0.5 * (u @ (self.A @ u)) + self.weights @ W(u))

    def _march(self, K: StepMatrix, scheme: BDFScheme, recent: List[np.ndarray],
               steps: range, t0: float, dt: float, label: Optional[int] = None
               ) -> Iterator[Tuple[int, float, np.ndarray, np.ndarray]]:
        """Yield (n, t, u, w) for each step n in `steps`, taken at t = t0 + n dt.

        `recent` holds the scheme's k newest u, newest first; an abort names
        step n, or step `label` and its substep n. The loads come a block of
        max(1, LOAD_BLOCK_VALUES // N) steps at a time, at the same doubles.
        """
        block = max(1, LOAD_BLOCK_VALUES // self.mesh.node_count)
        for first in range(steps.start, steps.stop, block):
            ns = range(first, min(first + block, steps.stop))
            b1, b2 = self.loads(t0 + np.arange(ns.start, ns.stop) * dt)
            for col, n in enumerate(ns):
                t = t0 + n * dt
                try:
                    u, w = bdf_step(self.problem, scheme, K, self.M, recent,
                                    b1[:, col], b2[:, col])
                except ValueError as exc:
                    where = (n if label is None else
                             f"{label}, BDF{scheme.k} substep {n} of {len(steps)}")
                    raise RuntimeError(f"aborted at step {where} (t = {t}): {exc}") from exc
                recent = [u] + recent[:-1]
                yield n, t, u, w

    def starts(self, mode: str) -> Iterator[Tuple[np.ndarray, np.ndarray]]:
        """The k starting pairs (u^j, w^j) at t = t_start + j tau, j = 0..k-1.

        mode 'exact' interpolates the stated exact solution; 'bootstrap' takes
        u^0 from the initial data at t_start, with w^0 None (no step reads
        it), and reaches each later start with m = ceil(tau^(-(k-1)/k)) BDF1
        substeps (at most BOOTSTRAP_SUBSTEP_CAP). Their error, about tau^2/m
        = tau^(2+(k-1)/k), is below the method order k for k >= 3.
        """
        problem, mesh, tau, k = self.problem, self.mesh, self.tau, self.scheme.k
        t_start = self.t_start
        if mode == "exact":
            if not problem.has_exact_solution:
                raise ValueError("start mode 'exact' needs exact solutions")
            for j in range(k):
                t = t_start + j * tau
                yield (assembly.nodal_interpolate(problem.exact_u, mesh, t),
                       assembly.nodal_interpolate(problem.exact_w, mesh, t))
            return
        if mode != "bootstrap":
            raise ValueError(f"start mode must be 'exact' or 'bootstrap', got {mode!r}")

        u = assembly.nodal_interpolate(problem.u0, mesh, t_start)
        yield u, None
        if k == 1:
            return
        m = _bootstrap_substeps(tau, k)
        sub = tau / m
        one = bdf_scheme(1)
        K1 = build_step_matrix(self.M, self.A, one.delta[0] / sub, self.order)
        for j in range(1, k):
            for _, _, u, w in self._march(K1, one, [u], range(1, m + 1),
                                          t_start + (j - 1) * tau, sub, j):
                pass
            yield u, w

    def stream(self, n_steps: int, starts: Iterable[Tuple[np.ndarray, np.ndarray]]
               ) -> Iterator[Tuple[int, float, np.ndarray, np.ndarray]]:
        """Yield (n, t, u, w) for n = 0..n_steps, holding only the k newest u.

        `starts` supplies the first k pairs (w is None at a bootstrap level
        0) and n_steps, at least k - 1, comes from `step_count`. The step
        matrix is factorized once the starting values are done, after a
        bootstrap has released its own factorization, and not at all when
        they fill the run (n_steps = k - 1).
        """
        k = self.scheme.k
        if n_steps < k - 1:
            raise ValueError(f"n_steps={n_steps} is fewer than the k - 1 = {k - 1} "
                             f"steps the starting values of BDF{k} fill")
        recent: List[np.ndarray] = []  # newest first
        for n, (u, w) in enumerate(starts):
            recent.insert(0, u)
            yield n, self.t_start + n * self.tau, u, w
        if n_steps == k - 1:
            return
        K = build_step_matrix(self.M, self.A, self.scheme.delta[0] / self.tau,
                              self.order)
        yield from self._march(K, self.scheme, recent, range(k, n_steps + 1),
                               self.t_start, self.tau)


def run(problem: ProblemSpec, mesh: Mesh2D, tau: float, T: float,
        scheme: BDFScheme, start_mode: str = "auto",
        keep: Iterable[int] = ()) -> Trajectory:
    """Advance the problem from t = 0 to T, streaming its diagnostics.

    Each time level adds its time, mass and (when the problem has a
    potential) energy to the trajectory and is then dropped, unless its step
    index is in `keep`: those u are kept as snapshots. An index outside
    [0, n_steps] is a ValueError, raised before anything is assembled.
    start_mode 'auto' picks 'exact' when the problem has an exact solution
    and 'bootstrap' otherwise. A run seeded with other starting values, or
    from a later time, is `Stepper(..., t_start).stream` with those values.
    """
    n_steps = step_count(tau, T, scheme.k)
    keep = set(keep)
    for n in keep:
        if n not in range(n_steps + 1):
            raise ValueError(f"cannot keep step {n!r}: the run has steps 0..{n_steps}")
    stepper = Stepper(problem, mesh, tau, scheme)
    if start_mode == "auto":
        start_mode = "exact" if problem.has_exact_solution else "bootstrap"

    times, mass = np.empty(n_steps + 1), np.empty(n_steps + 1)
    energy = None if problem.potential is None else np.empty(n_steps + 1)
    snapshots = []
    for n, t, u, w in stepper.stream(n_steps, stepper.starts(start_mode)):
        times[n], mass[n] = t, stepper.mass(u)
        if energy is not None:
            energy[n] = stepper.energy(u)
        if n in keep:
            snapshots.append(u)
    return Trajectory(times=times, mass=mass, energy=energy, u_final=u,
                      w_final=w, snapshots=snapshots, M=stepper.M, A=stepper.A)
