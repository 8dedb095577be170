import numpy as np
import pytest

from hypokin.anisotropy import BlockStructure, KolmogorovModel, matrix_exp
from hypokin.errors import NotHypoelliptic, TimeTooSmallWarning, UnsupportedFlow
from hypokin.fields import AnisoGrid, GridField, constant_field
from hypokin import semigroup as sg
from hypokin import spectral as sp


def kinetic_cov(t):
    return np.array([[t, t ** 2 / 2.0], [t ** 2 / 2.0, t ** 3 / 3.0]])


def grid_inner(f, g):
    return float(np.sum(f.values * g.values) * f.grid.cell_volume)


# --- covariance -----------------------------------------------------------------

@pytest.mark.parametrize("t", [0.1, 0.5, 1.0])
def test_covariance_closed_form(kinetic, t):
    C = sg.covariance(kinetic, t)
    ref = kinetic_cov(t)
    assert np.max(np.abs(C - ref)) / np.max(np.abs(ref)) < 1e-10
    assert np.linalg.det(C) == pytest.approx(t ** 4 / 12.0, rel=1e-10)


def quadrature_covariance(model, t):
    """C(t) by 64-node Gauss-Legendre quadrature of exp(sB) A exp(sB)^T."""
    nodes, wts = np.polynomial.legendre.leggauss(64)
    return 0.5 * t * sum(wi * (E @ model.A @ E.T) for wi, E in zip(
        wts, (matrix_exp(model.B, si) for si in 0.5 * t * (nodes + 1.0))))


def test_covariance_quadrature_agrees(kinetic):
    for t in (0.2, 1.3):
        a = sg.covariance(kinetic, t)
        b = quadrature_covariance(kinetic, t)
        assert np.max(np.abs(a - b)) < 1e-12 * np.max(np.abs(a))


def test_covariance_heat_case():
    # full-rank noise (d = N): C(t) = t I
    m = KolmogorovModel(blocks=BlockStructure((2,)), B=np.zeros((2, 2)))
    assert m.hypoelliptic
    assert np.allclose(sg.covariance(m, 0.7), 0.7 * np.eye(2), atol=1e-12)


def test_covariance_degenerate_raises():
    dead = KolmogorovModel(blocks=BlockStructure((1, 1)), B=np.zeros((2, 2)))
    with pytest.raises(NotHypoelliptic):
        sg.covariance(dead, 0.5)


def test_covariance_reverse(kinetic):
    # reversed flow flips the cross term
    C = sg.covariance(kinetic, 0.8, reverse=True)
    ref = kinetic_cov(0.8) * np.array([[1, -1], [-1, 1]])
    assert np.max(np.abs(C - ref)) < 1e-12


def test_covariance_chapman_kolmogorov(kinetic):
    times = [0.25, 0.5]
    C = [sg.covariance(kinetic, t) for t in times]

    def defect(i, j):
        """Relative defect of C(t+s) = C(t) + e^(tB) C(s) e^(tB)^T."""
        E = matrix_exp(kinetic.B, times[i])
        C_sum = sg.covariance(kinetic, times[i] + times[j])
        composed = C[i] + E @ C[j] @ E.T
        return np.max(np.abs(C_sum - composed)) / np.max(np.abs(C_sum))

    assert defect(0, 1) < 1e-10
    assert defect(0, 0) < 1e-10
    for Ct in C:
        assert np.all(np.linalg.eigvalsh(Ct) > 0)


# --- kernel ------------------------------------------------------------------------

def test_kernel_field_unit_mass_and_centering(kinetic, grid256):
    kf = sg.kernel_field(kinetic, grid256, 1.5)
    assert float(kf.integral()[0]) == pytest.approx(1.0, abs=1e-12)
    imax = np.unravel_index(np.argmax(kf.values), kf.values.shape)
    assert grid256.axes()[0][imax[0]] == 0.0
    assert grid256.axes()[1][imax[1]] == 0.0


# --- semigroup application -----------------------------------------------------------

def test_apply_identity_at_zero(kinetic, grid256):
    f = sp.random_localized_field(grid256, 1)
    prop = sg.Propagator(kinetic, grid256)
    assert prop.apply_P(0.0, f) is f
    assert prop.apply_Pprime(0.0, f) is f


def test_mass_and_constants(kinetic, grid256):
    one = constant_field(grid256, 1.0)
    prop = sg.Propagator(kinetic, grid256)
    # trace-free drift: P_t 1 = P'_t 1 = 1
    assert np.max(np.abs(prop.apply_P(0.3, one).values - 1.0)) < 1e-12
    assert np.max(np.abs(prop.apply_Pprime(0.3, one).values - 1.0)) < 1e-12
    f = sp.random_localized_field(grid256, 2)
    m0 = float(f.integral()[0])
    m1 = float(prop.apply_Pprime(0.4, f).integral()[0])
    assert abs(m1 - m0) < 1e-8 * max(abs(m0), 1.0)


def test_positivity(kinetic, grid256, u0_256):
    out = sg.Propagator(kinetic, grid256).apply_Pprime(0.3, u0_256)
    assert float(np.min(out.values)) > -1e-10


def test_exact_on_lattice_harmonics(kinetic, grid256):
    V, X = grid256.meshgrid()
    xiv = grid256.freq_axes()[0][3]
    xix = grid256.freq_axes()[1][40]
    f = GridField(grid256, np.cos(xiv * V + xix * X))
    t = 0.37
    out = sg.Propagator(kinetic, grid256).apply_Pprime(t, f)
    xi = np.array([xiv, xix])
    damp = np.exp(-0.5 * xi @ sg.covariance(kinetic, t, reverse=True) @ xi)
    ref = damp * np.cos(xiv * V + xix * (X - t * V))
    assert np.max(np.abs(out.values[..., 0] - ref)) < 1e-12


def test_semigroup_law(kinetic, grid256):
    prop = sg.Propagator(kinetic, grid256)
    for seed, (s, t) in ((0, (0.06, 0.04)), (1, (0.03, 0.05))):
        f = sp.random_localized_field(grid256, seed, decay=2.5, width=0.12)
        one = prop.apply_Pprime(t, prop.apply_Pprime(s, f))
        two = prop.apply_Pprime(s + t, f)
        rel = np.max(np.abs(one.values - two.values)) / two.sup_norm()
        assert rel < 1e-8


def test_duality(kinetic, grid256):
    prop = sg.Propagator(kinetic, grid256)
    for seed in range(3):
        f = sp.random_localized_field(grid256, seed, width=0.15)
        g = sp.random_localized_field(grid256, 50 + seed, width=0.15)
        lhs = grid_inner(prop.apply_P(0.3, f), g)
        rhs = grid_inner(f, prop.apply_Pprime(0.3, g))
        assert abs(lhs - rhs) < 1e-8 * abs(lhs)


def test_gaussian_in_gaussian_out(kinetic, grid_widev):
    # P'_t Gamma_s0 is the Gaussian with covariance C(t) + e^{tB} C(s0) e^{tB}^T
    s0, t = 1.0, 0.25
    gin = sp.bandlimit(sg.kernel_field(kinetic, grid_widev, s0))
    out = sg.Propagator(kinetic, grid_widev).apply_Pprime(t, gin)
    E = matrix_exp(kinetic.B, t)
    mixed = sg.covariance(kinetic, t) + E @ sg.covariance(kinetic, s0) @ E.T
    assert np.max(np.abs(mixed - sg.covariance(kinetic, s0 + t))) < 1e-12
    ref = sg.kernel_field(kinetic, grid_widev, s0 + t)
    rel = np.max(np.abs(out.values - ref.values)) / ref.sup_norm()
    assert rel < 1e-4


def test_weak_identity_refinement(kinetic, grid128, u0_128):
    # <v_t, psi> = <phi, psi> + int_0^t <v_s, A psi> ds with
    # A = Delta_v/2 + <Bz, grad>; the trapezoid residual shrinks ~ dt^2,
    # an order fitted over four meshes
    psi = sp.random_localized_field(grid128, 9, width=0.15)
    lap = sp.spectral_derivative(sp.spectral_derivative(psi, 0), 0)
    mesh = grid128.meshgrid()
    Bz = [sum(kinetic.B[a, b] * mesh[b] for b in range(2)) for a in range(2)]
    grad = [sp.spectral_derivative(psi, a) for a in range(2)]
    a_psi_vals = 0.5 * lap.values[..., 0] + sum(
        Bz[a] * grad[a].values[..., 0] for a in range(2))
    a_psi = psi.with_values(a_psi_vals)

    T = 0.4
    prop = sg.Propagator(kinetic, grid128)

    def residual(n_t):
        times = np.linspace(0.0, T, n_t)
        vs = [u0_128 if s == 0 else prop.apply_Pprime(s, u0_128)
              for s in times]
        pair = np.array([grid_inner(v, a_psi) for v in vs])
        integral = np.trapezoid(pair, times)
        return abs(grid_inner(vs[-1], psi) - grid_inner(u0_128, psi)
                   - integral)

    n_ts = np.array([9, 17, 33, 65])
    order = np.polyfit(np.log(T / (n_ts - 1)),
                       np.log([residual(n) for n in n_ts]), 1)[0]
    assert 1.9 <= order <= 2.1  # second-order quadrature


@pytest.mark.parametrize("adjoint, lam", [
    (True, 0.0), (True, 3.0), (False, 0.0), (False, 3.0),
], ids=["Pprime", "Pprime-lam3", "P", "P-lam3"])
def test_march_matches_direct_sum(kinetic, grid256, adjoint, lam):
    # from a zero base the march is -I, and the chain I_(k+1) =
    # e^(-lam dt) S_dt I_k + local_k matches the sum over i < k of
    # e^(-lam j dt) S_(j dt) local_i, j = k - 1 - i
    prop = sg.Propagator(kinetic, grid256)
    apply = prop.apply_Pprime if adjoint else prop.apply_P
    dt = 0.02
    q = [sp.fftn(sp.random_localized_field(grid256, seed, width=0.12).values)
         for seed in range(5)]

    def local(i):
        return GridField(grid256, prop.convolve_local(q[i], dt, 0, adjoint,
                                                      lam))

    base = [constant_field(grid256, 0.0)] * (len(q) + 1)
    u = list(prop.march(base, lambda k, _: q[k], dt, adjoint, lam))
    # one step per source
    assert len(u) == len(q) + 1
    assert u[0] is base[0]
    for k in range(1, len(u)):
        direct = sum(np.exp(-lam * (k - 1 - i) * dt)
                     * apply((k - 1 - i) * dt, local(i)).values
                     for i in range(k))
        rel = np.max(np.abs(-u[k].values - direct)) / np.max(np.abs(direct))
        assert rel < 1e-8


@pytest.mark.parametrize("adjoint", [True, False], ids=["Pprime", "P"])
@pytest.mark.parametrize("lam", [0.0, 3.0], ids=["lam0", "lam3"])
def test_march_is_causal(kinetic, adjoint, lam):
    # the forward flux source div_v(Ftilde(u_k) b_k): u_0 is the base, q_k
    # is built only once u_k exists, and the causal march, which reads
    # the slice just made, is the fixed point of the sweep that reads its
    # argument, reached after as many sweeps as steps
    from hypokin import fpsolver as fp
    from hypokin.fields import gaussian_field

    grid = AnisoGrid.build(kinetic.blocks, [64, 64])
    n_t, dt = 6, 0.1
    times = dt * np.arange(n_t)
    b = sp.synthesize_besov_field(0.3, 7, grid, time_mesh=times,
                                  amplitude=0.3, window=True)
    prop = sg.Propagator(kinetic, grid)
    base = list(prop.evolve(sp.bandlimit(gaussian_field(grid, [0.6, 3.0])),
                            times, adjoint, lam))
    nl = fp.bounded_rational_nonlinearity()

    def flux(k, v):
        return sp.div_first_block(fp.nonlinear_flux(v, b.at_index(k), nl))

    u = []

    def causal(k, v):
        assert len(u) == k + 1 and v is u[-1]
        return flux(k, v)

    for v in prop.march(base, causal, dt, adjoint, lam):
        u.append(v)
    assert len(u) == n_t
    assert u[0].values.tobytes() == base[0].values.tobytes()
    swept = base
    for _ in range(n_t - 1):
        swept = list(prop.march(base, lambda k, _: flux(k, swept[k]), dt,
                                adjoint, lam))
    scale = max(f.sup_norm() for f in u)
    assert max((a - c).sup_norm() for a, c in zip(u, base)) > 1e-3 * scale
    assert max((a - c).sup_norm() for a, c in zip(u, swept)) \
        <= 1e-13 * scale


@pytest.mark.parametrize("adjoint", [True, False], ids=["Pprime", "P"])
def test_evolve_is_damped_semigroup(kinetic, grid256, adjoint):
    prop = sg.Propagator(kinetic, grid256)
    apply = prop.apply_Pprime if adjoint else prop.apply_P
    f = sp.random_localized_field(grid256, 9)
    lags = [0.0, 0.05, 0.2]
    out = list(prop.evolve(f, lags, adjoint, lam=3.0))
    assert out[0] is f
    for s, g in zip(lags[1:], out[1:]):
        assert np.array_equal(g.values, np.exp(-3.0 * s) * apply(s, f).values)


def test_time_too_small_warning(kinetic, grid256):
    # one-shot, evolved and marched steps below one cell all warn, and each
    # warning names the caller, not a frame inside the package
    f = sp.random_localized_field(grid256, 3)
    prop = sg.Propagator(kinetic, grid256)
    with pytest.warns(TimeTooSmallWarning) as record:
        prop.apply_Pprime(1e-7, f)
        list(prop.evolve(f, [0.0, 1e-7], adjoint=True))
        list(prop.march([f] * 3, lambda k, _: sp.fftn(f.values), 1e-7,
                        adjoint=True))
    assert [w.filename for w in record] == [__file__] * 3
    # steps of dt = 5e-7 on a 64^2 grid: both solvers warn from their
    # free evolution (2 slices each) and their marches (the forward march
    # and its certifying sweep, the backward march), and every warning
    # names the solver's caller, however deep in the package it was raised
    from hypokin import fpsolver as fp
    from hypokin import kolmogorov as kg

    grid = AnisoGrid.build(kinetic.blocks, [64, 64])
    T, n_t = 1e-6, 3
    b = sp.synthesize_besov_field(0.3, 1, grid, time_mesh=np.linspace(
        0.0, T, n_t), amplitude=0.3, window=True)
    datum = sp.random_localized_field(grid, 3)
    forward = fp.FPProblem(model=kinetic, b=b, u0=datum, beta=0.3,
                           epsilon=0.2, T=T, strict=False)
    backward = kg.BackwardProblem(model=kinetic, Bc=b, g=None, ell=datum,
                                  lam=1.0, beta=0.3, epsilon=0.2)
    with pytest.warns(TimeTooSmallWarning) as record:
        fp.solve_fp(forward, fp.bounded_rational_nonlinearity())
        kg.solve_kolmogorov(backward)
    assert [w.filename for w in record] == [__file__] * 7


# --- transform counts ---------------------------------------------------------

def _count_transforms(monkeypatch):
    """Count `fftn` and `ifftn_real` calls in every hypokin module that
    holds them by name."""
    import sys

    counts = {"fftn": 0, "ifftn_real": 0}
    for name in counts:
        original = getattr(sp, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            counts[_name] += 1
            return _original(*args, **kwargs)

        for module in list(sys.modules.values()):
            if module.__name__.startswith("hypokin") \
                    and getattr(module, name, None) is original:
                monkeypatch.setattr(module, name, counted)
    return counts


def test_one_transform_pair_per_step(kinetic, kinetic_d2, grid_d2,
                                     monkeypatch):
    # each semigroup step is one forward and one sheared inverse transform;
    # sources reach the chain as spectra, so a forward step is the flux's
    # forward transform, the local term's inverse and the step's pair
    from dataclasses import replace

    from hypokin import fpsolver as fp
    from hypokin import kolmogorov as kg
    from hypokin.fields import TimeField, gaussian_field

    grid = AnisoGrid.build(kinetic.blocks, [64, 64])
    n_t = 6
    times = np.linspace(0.0, 0.5, n_t)
    b = sp.synthesize_besov_field(0.3, 7, grid, time_mesh=times,
                                  amplitude=0.3, window=True)
    prop = sg.Propagator(kinetic, grid)
    u0 = sp.bandlimit(gaussian_field(grid, [0.6, 3.0]))
    problem = fp.FPProblem(model=kinetic, b=b, u0=u0, beta=0.3, epsilon=0.2,
                           T=0.5, strict=False)
    homogeneous = list(prop.evolve(u0, times, adjoint=True))
    u = TimeField(t0=0.0, t1=0.5, fields=tuple(homogeneous))
    sources, steps = n_t - 1, n_t - 2
    counts = _count_transforms(monkeypatch)

    fp.picard_J(u, problem, fp.bounded_rational_nonlinearity(), homogeneous)
    assert counts == {"fftn": sources + steps, "ifftn_real": sources + steps}

    # one forward transform of the datum, one inverse per nonzero lag
    counts.update(fftn=0, ifftn_real=0)
    list(prop.evolve(u0, times, adjoint=True))
    assert counts == {"fftn": 1, "ifftn_real": n_t - 1}

    # solve_fp: the free evolution once, shared by the march and its check
    # sweep, and two marches; the increment between them is zero, and its
    # norm transforms no zero field
    counts.update(fftn=0, ifftn_real=0)
    fp.solve_fp(problem, fp.bounded_rational_nonlinearity())
    assert counts == {"fftn": 1 + 2 * (sources + steps),
                      "ifftn_real": n_t - 1 + 2 * (sources + steps)}

    # backward: per source one forward transform of w for all d
    # derivatives and one of the transport term, d inverses for the
    # derivatives and the local term's inverse; the first source reads
    # the zero terminal slice and skips the transforms of w and of the
    # transport term.  g's slices are transformed when the problem is
    # built, one per source: no solve, and no rung of the ladder, transforms
    # them again
    for model, drift in (
            (kinetic, b),
            (kinetic_d2, sp.synthesize_besov_field(
                0.3, 7, grid_d2, channels=2, time_mesh=times,
                amplitude=0.3, window=True))):
        d = model.d
        counts.update(fftn=0, ifftn_real=0)
        backward = kg.BackwardProblem.zvonkin(model, drift, lam=1.0,
                                              beta=0.3, epsilon=0.2)
        assert counts == {"fftn": sources, "ifftn_real": 0}
        counts.update(fftn=0, ifftn_real=0)
        kg.solve_kolmogorov(backward)
        assert counts == {"fftn": 2 * sources + steps - 2,
                          "ifftn_real": (d + 1) * sources + steps - d}
        counts.update(fftn=0, ifftn_real=0)
        kg.solve_kolmogorov(replace(backward, lam=2.0))
        assert counts == {"fftn": 2 * sources + steps - 2,
                          "ifftn_real": (d + 1) * sources + steps - d}


def test_march_builds_one_field_per_step(kinetic, monkeypatch):
    # the march works on arrays: its only fields are u_1, ..., u_(n_t - 1),
    # and u_0 is the base's own field
    grid = AnisoGrid.build(kinetic.blocks, [64, 64])
    n_t = 6
    prop = sg.Propagator(kinetic, grid)
    base = [sp.random_localized_field(grid, seed) for seed in range(n_t)]
    q = [sp.fftn(sp.random_localized_field(grid, seed, width=0.12).values)
         for seed in range(n_t - 1)]
    inits = [0]
    original = GridField.__init__

    def counted(self, *args, **kwargs):
        inits[0] += 1
        original(self, *args, **kwargs)

    monkeypatch.setattr(GridField, "__init__", counted)
    u = list(prop.march(base, lambda k, _: q[k], 0.1, adjoint=True))
    assert inits == [n_t - 1]
    assert u[0] is base[0]


# --- the grid memo ------------------------------------------------------------

def _terminal_problem(model, grid):
    """A backward problem with zero drift and a terminal datum: its march
    builds both plain and local multipliers."""
    from hypokin.fields import TimeField
    from hypokin.kolmogorov import BackwardProblem
    zero = GridField(grid, np.zeros(grid.shape + (model.d,)))
    return BackwardProblem(
        model=model, Bc=TimeField(t0=0.0, t1=0.5, fields=(zero,) * 5),
        g=None, ell=sp.random_localized_field(grid, 5, decay=2.0, width=0.2),
        lam=1.0, beta=0.3, epsilon=0.2)


def test_repeated_solve_builds_no_table(kinetic, monkeypatch):
    # the multipliers live in the grid memo: a second solve on the grid
    # builds none and gives the same bytes
    from hypokin.kolmogorov import solve_kolmogorov
    grid = AnisoGrid.build(kinetic.blocks, [32, 32])
    problem = _terminal_problem(kinetic, grid)
    calls = []
    covariance = sg.covariance

    def counted(*args, **kwargs):
        calls.append(args)
        return covariance(*args, **kwargs)

    monkeypatch.setattr(sg, "covariance", counted)
    first = solve_kolmogorov(problem).u
    built = len(calls)
    again = solve_kolmogorov(problem).u
    assert built > 0
    assert len(calls) == built
    assert all(np.array_equal(a.values, b.values)
               for a, b in zip(first.fields, again.fields))


def test_models_do_not_share_tables(kinetic):
    grid = AnisoGrid.build(kinetic.blocks, [32, 32])
    steeper = KolmogorovModel(blocks=kinetic.blocks, B=2.0 * kinetic.B)
    a, b = sg.Propagator(kinetic, grid), sg.Propagator(steeper, grid)
    assert sg.Propagator(kinetic, grid).multiplier(0.1) is a.multiplier(0.1)
    assert not np.array_equal(a.multiplier(0.1), b.multiplier(0.1))
    assert not np.array_equal(a.local_multiplier(0.1),
                              b.local_multiplier(0.1))


def test_dropped_grid_is_freed_without_the_collector(kinetic):
    # nothing in the grid memo refers back to the grid, so reference
    # counting alone frees it: a propagator stored there would make a
    # cycle that only the garbage collector breaks
    import gc
    import weakref
    from hypokin.kolmogorov import solve_kolmogorov
    gc.disable()
    try:
        grid = AnisoGrid.build(kinetic.blocks, [32, 32])
        ref = weakref.ref(grid)
        sol = solve_kolmogorov(_terminal_problem(kinetic, grid))
        sg.Propagator(kinetic, grid).apply_Pprime(0.1, sol.u.at_index(0))
        sg.kernel_field(kinetic, grid, 0.1)
        del grid
        assert ref() is not None
        del sol
        assert ref() is None
    finally:
        gc.enable()


def test_unsupported_flow():
    m = KolmogorovModel(blocks=BlockStructure((1, 1)),
                        B=np.array([[0.0, 1.0], [1.0, 0.0]]))
    assert m.hypoelliptic  # controllable, but not shear-decomposable
    grid = AnisoGrid.build(m.blocks, [64, 64])
    with pytest.raises(UnsupportedFlow):
        sg.Propagator(m, grid)


@pytest.mark.parametrize("B, points", [
    ([[0.0, 1.0], [0.0, 0.0]], [64, 64]),
    ([[0.0, 1.0, 1.0], [0.0, 0.0, 1.0], [0.0, 0.0, 0.0]], [16, 16, 16]),
], ids=["2d", "3d"])
def test_upper_triangular_shear(B, points, tmp_path, capsys):
    # only an elliptic model (d = N) can have an upper triangular B, and it
    # is the same model with its coordinates reversed: the sheared inverse
    # transform takes a lower-triangular B only, so the propagator and the
    # CLI reject it and say so
    from hypokin import cli
    from test_cli import TINY_CONFIG

    B = np.array(B)
    N = len(points)
    m = KolmogorovModel(blocks=BlockStructure((N,)), B=B)
    assert sg.triangularity(m.B) == "upper"
    grid = AnisoGrid.build(m.blocks, points)
    with pytest.raises(UnsupportedFlow, match="coordinates reversed"):
        sg.Propagator(m, grid)
    cfg = tmp_path / "upper.cfg"
    cfg.write_text(TINY_CONFIG.replace(
        "d = 1\nB = 0 0  1 0",
        f"d = {N}\nB = {' '.join(str(x) for x in B.ravel())}").replace(
        "points_per_dim = 48 48", "points_per_dim = " + " ".join(
            str(p) for p in points)))
    assert cli.main(["solve-fp", "--config", str(cfg),
                     "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert "[model] B must be strictly lower triangular" in err
    assert "coordinates reversed" in err


def test_chain3_propagation(chain3):
    # three-block chain: mass conservation and positivity on a small 3-D grid
    grid = AnisoGrid.build(chain3.blocks, [32, 32, 32],
                           half_extents=[np.pi, np.pi ** 3, np.pi ** 3])
    from hypokin.fields import gaussian_field
    u0 = sp.bandlimit(gaussian_field(grid, [0.5, 4.0, 4.5]))
    u0 = u0 * (1.0 / float(u0.integral()[0]))
    out = sg.Propagator(chain3, grid).apply_Pprime(0.5, u0)
    assert float(out.integral()[0]) == pytest.approx(1.0, abs=1e-8)
    assert float(np.min(out.values)) > -1e-8


# --- smoothing probes -----------------------------------------------------------------

def test_schauder_alpha_zero_bounded(kinetic, grid256):
    fields = [sp.synthesize_besov_field(0.4, s, grid256, modes_per_shell=2)
              for s in range(2)]
    rep = sg.schauder_probe(kinetic, -0.4, 0.0, [0.01, 0.1, 0.5], fields)
    assert rep.max_ratio["Pprime"] < 10.0
    assert rep.ratio_spread["Pprime"] < 5.0


def test_schauder_smooth_input_saturates(kinetic, grid256):
    fields = [sp.random_localized_field(grid256, 7, decay=3.0)]
    rep = sg.schauder_probe(kinetic, 0.2, 1.0, [1e-3, 1e-2, 1e-1], fields)
    # smooth inputs already live at the target index: no blow-up as t -> 0
    assert rep.slopes["Pprime"] > -0.5


def test_kernel_block_decay_flat_bound(kinetic, grid256):
    norms = sg.shell_kernel_l1(kinetic, grid256, 0.25)
    table = sp.build_partition(grid256)
    k0 = sp.ifftn_real((table[1] * grid256.npoints / grid256.box_volume
                        )[..., np.newaxis])
    rho0_l1 = np.sum(np.abs(k0)) * grid256.cell_volume
    # below the parabolic scale the shell norm obeys the flat bound
    for j in range(0, grid256.J_max + 1):
        if 0.25 * 4.0 ** j < 1.0:
            assert norms[j + 1] <= rho0_l1 * (1 + 1e-6)


def test_kernel_block_decay_uniform_low_shell(kinetic, grid256):
    vals = [sg.shell_kernel_l1(kinetic, grid256, t)[0] for t in
            (0.05, 0.2, 0.8)]
    assert max(vals) < 2.0


def test_kernel_block_decay_exponent(kinetic, grid256):
    # probe where the dyadic annuli are fully represented (small t); at
    # large t the position direction of the outer annuli leaves the lattice
    rep = sg.kernel_block_decay(kinetic, grid256, t_list=[0.0625, 0.25],
                                j_list=list(range(0, grid256.J_max + 1)))
    assert rep.exponent >= 1.0
    assert rep.exponent >= 2.0
