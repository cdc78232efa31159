"""Independent reference implementations used to cross-check the package.

Everything here is deliberately written the slow, obvious way (scalar
loops, dense matrices, direct series formulas) and stays independent of
the code paths it validates.
"""

import math

import numpy as np


def dense_stencil(couplings):
    """Dense stencil matrix on the midpoint pair (ai, aj), built by direct enumeration over pixels."""
    ai, aj = couplings
    m, n = ai.shape
    F = np.zeros((m * n, m * n))
    for j in range(n):
        for i in range(m):
            q = j * m + i
            # west, east, north, south neighbour
            for ii, jj in ((i - 1, j), (i + 1, j), (i, j - 1), (i, j + 1)):
                if not (0 <= ii < m and 0 <= jj < n):
                    continue
                # the edge between two pixels is indexed by the smaller of their indices
                coup = ai[min(i, ii), j] if jj == j else aj[i, min(j, jj)]
                r = jj * m + ii
                F[q, r] += coup
                F[q, q] -= coup
    return F


def dense_correlate_symmetric(img, kernel2d):
    """Direct 2-D correlation with mirror (symmetric) padding."""
    km, kn = kernel2d.shape
    rm, rn = (km - 1) // 2, (kn - 1) // 2
    pad = np.pad(img, ((rm, rm), (rn, rn)), mode="symmetric")
    m, n = img.shape
    out = np.zeros((m, n))
    for i in range(m):
        for j in range(n):
            acc = 0.0
            for s in range(km):
                for t in range(kn):
                    acc += kernel2d[s, t] * pad[i + s, j + t]
            out[i, j] = acc
    return out


def halfpoint_diffusivity(pixels, epsilon, p, g, dg):
    """Scalar re-derivation of the midpoint coefficients.

    Smoothed gradients via the dense correlation oracle, midpoint values as
    plain two-point means (border midpoints clamp to the node value).
    Returns (west, east, north, south) arrays.
    """
    gx = dense_correlate_symmetric(pixels, np.outer(dg, g))
    gy = dense_correlate_symmetric(pixels, np.outer(g, dg))
    m, n = pixels.shape
    expo = (p - 2.0) / 2.0

    def a_at(gxv, gyv):
        return (epsilon + gxv * gxv + gyv * gyv) ** expo

    west = np.zeros((m, n))
    east = np.zeros((m, n))
    north = np.zeros((m, n))
    south = np.zeros((m, n))
    for i in range(m):
        for j in range(n):
            iw = max(i - 1, 0)
            ie = min(i + 1, m - 1)
            jn = max(j - 1, 0)
            js = min(j + 1, n - 1)
            west[i, j] = a_at(0.5 * (gx[iw, j] + gx[i, j]), 0.5 * (gy[iw, j] + gy[i, j]))
            east[i, j] = a_at(0.5 * (gx[ie, j] + gx[i, j]), 0.5 * (gy[ie, j] + gy[i, j]))
            north[i, j] = a_at(0.5 * (gx[i, jn] + gx[i, j]), 0.5 * (gy[i, jn] + gy[i, j]))
            south[i, j] = a_at(0.5 * (gx[i, js] + gx[i, j]), 0.5 * (gy[i, js] + gy[i, j]))
    return west, east, north, south


def _windowed_pass(src, axis, size, taps):
    """Correlation along ``axis`` of a 2-D array, one 2-D window per tap, summed from the first tap on."""

    def window(t):
        return src[t : t + size] if axis == 0 else src[:, t : t + size]

    out = taps[0] * window(0)
    for t in range(1, len(taps)):
        out += taps[t] * window(t)
    return out


def windowed_gradient(pixels, g, dg):
    """Smoothed gradient with every tap a 2-D window: the bit reference of the flat passes.

    The same products and sums in the same order as ``grad_gaussian``, so
    the two agree bit for bit whatever memory layout each one walks, for up
    to 11 taps: a wider kernel's sums are BLAS dot products, whose order
    follows the CPU.
    """
    r = (g.shape[0] - 1) // 2
    m, n = pixels.shape
    pad = np.pad(pixels, r, mode="symmetric")
    smooth_j = _windowed_pass(pad, 1, n, g)
    diff_j = _windowed_pass(pad, 1, n, dg)
    gx = _windowed_pass(smooth_j, 0, m, dg)
    gy = _windowed_pass(diff_j, 0, m, g)
    return gx, gy


def windowed_midpoints(gx, gy, epsilon, p):
    """Interior midpoint coefficients from 2-D windows: shapes (M-1, N) and (M, N-1).

    The bit reference of ``diffusivity_half``'s flat shifts; p = 2 gives ones.
    """
    m, n = gx.shape
    if p == 2.0:
        return np.ones((m - 1, n)), np.ones((m, n - 1))
    expo = (p - 2.0) / 2.0

    def coeff(a0, a1, b0, b1):
        return (((a0 + a1) ** 2 + (b0 + b1) ** 2) * 0.25 + epsilon) ** expo

    ai = coeff(gx[:-1], gx[1:], gy[:-1], gy[1:])
    aj = coeff(gx[:, :-1], gx[:, 1:], gy[:, :-1], gy[:, 1:])
    return ai, aj


def windowed_apply(ci, cj, x):
    """F @ x from interior couplings (shapes (M-1, N), (M, N-1)) with 2-D edge-flux windows."""
    m, n = cj.shape[0], ci.shape[1]
    u = x.reshape((m, n), order="F")
    out = np.zeros((m, n))
    f = ci * (u[1:] - u[:-1])
    out[1:] -= f
    out[:-1] += f
    f = cj * (u[:, 1:] - u[:, :-1])
    out[:, 1:] -= f
    out[:, :-1] += f
    return out.ravel(order="F")


def windowed_diagonal(ci, cj):
    """Column-stacked diagonal of F from interior couplings, west, east, north, south."""
    m, n = cj.shape[0], ci.shape[1]
    diag = np.zeros((m, n))
    diag[1:] -= ci
    diag[:-1] -= ci
    diag[:, 1:] -= cj
    diag[:, :-1] -= cj
    return diag.ravel(order="F")


def naive_dft_energy(pixels, n0):
    """High-frequency energy from an O(M^2 N^2) direct DFT double sum."""
    m, n = pixels.shape
    total = 0.0
    for k in range(m):
        for l in range(n):
            if k + l < n0:
                continue
            acc = 0.0 + 0.0j
            for i in range(m):
                for j in range(n):
                    acc += pixels[i, j] * np.exp(-2j * np.pi * (k * i / m + l * j / n))
            total += abs(acc) ** 2
    return total


def replayed_stop(rule, rows):
    """(step, reason) at which ``rule`` stops a run, replayed over its (rde, sigma, t, step) rows.

    A rule that never fires stops at the last row, for "max-steps".
    """
    step = 0
    for rde, sigma, t, step in rows:
        if rule.fired(rde, sigma, t):
            return step, rule.reason
    return step, "max-steps"


def step_length(config, first_order=False):
    """The length of every step of a run: the fixed dt, or the theorem rule at the bound 8 * epsilon^((p-2)/2).

    No stencil's spectral bound exceeds 8 * epsilon^((p-2)/2), so the theorem
    rule takes its one step there: 0.9 * eta / sqrt(lam) for the damped
    flow, 0.9 * 2 / lam for the baseline.
    """
    if config.dt != "auto":
        return config.dt
    lam = 8.0 * config.epsilon ** ((config.exponent_p - 2.0) / 2.0)
    return 0.9 * 2.0 / lam if first_order else 0.9 * config.eta / math.sqrt(lam)


def _stencil_of(u0, config):
    """The stencil of a column-stacked iterate on ``u0``'s grid, built with the package's diffusivity and assemble."""
    from svddf import GaussianKernel, ImageGrid, assemble, diffusivity_half

    kernel = GaussianKernel(config.sigma)

    def stencil(u):
        image = ImageGrid(u.reshape(u0.shape, order="F"))
        return assemble(diffusivity_half(image, config.epsilon, config.exponent_p, kernel))

    return stencil


def reassembling_flow(u0, config, steps, first_order=False):
    """(u, v) after ``steps`` steps of either flow, every stencil assembled afresh.

    The program carries its stencil from step to step and reuses it where it
    cannot change; this loop rebuilds each one from the iterate it belongs
    to.  It checks that carry, not the stencil, so it builds stencils with
    the package's own diffusivity, assemble and apply, in the program's
    arithmetic order: where the reuse is exact, the bits must agree.
    """
    from svddf import apply

    stencil = _stencil_of(u0, config)
    dt = step_length(config, first_order)
    u = u0.pixels.flatten(order="F")
    v, u_pre = np.zeros_like(u), u
    for _ in range(steps):
        if first_order:
            F = stencil(u)
            v = apply(F, u)
            u = u + dt * v
        else:
            # the opening half-kick uses the stencil of the iterate before the last drift
            F_prev, F_new = stencil(u_pre), stencil(u)
            v_half = (v + 0.5 * dt * apply(F_prev, u)) / (1.0 + 0.5 * config.eta * dt)
            u, u_pre = u + dt * v_half, u
            v = v_half + 0.5 * dt * (apply(F_new, u) - config.eta * v_half)
    return u, v


def heavy_ball_flow(u0, config, steps):
    """The iterate after ``steps`` damped Stormer-Verlet steps from v = 0, as Polyak's heavy ball.

    At a fixed step dt, with c = eta * dt / 2, beta = (1 - c) / (1 + c) and
    alpha = dt^2 / (1 + c), eliminating the velocity leaves the two-term
    recursion

        u_1     = u_0 + (alpha / 2) * F(u_0) u_0
        u_(k+1) = u_k + beta * (u_k - u_(k-1)) + alpha * F(u_(k-1)) u_k

    in which the stencil lags one iterate behind the one it acts on.  Every
    stencil is assembled afresh from its iterate.
    """
    from svddf import apply

    stencil = _stencil_of(u0, config)
    dt = step_length(config)
    c = 0.5 * config.eta * dt
    # 2 / (1 + c) - 1 is (1 - c) / (1 + c), and stays -1 where eta * dt overflows c to inf
    beta, alpha = 2.0 / (1.0 + c) - 1.0, dt**2 / (1.0 + c)
    u_pre = u0.pixels.flatten(order="F")
    u = u_pre + 0.5 * alpha * apply(stencil(u_pre), u_pre)
    for _ in range(steps - 1):
        u, u_pre = u + beta * (u - u_pre) + alpha * apply(stencil(u_pre), u), u
    return u


def dct_matrix(n):
    """Orthonormal DCT-II matrix: row k is sqrt(2/n) * cos(pi * k * (2i + 1) / 2n), row 0 scaled by 1/sqrt(2)."""
    k = np.arange(n)[:, None]
    i = np.arange(n)[None, :]
    C = math.sqrt(2.0 / n) * np.cos(np.pi * k * (2 * i + 1) / (2 * n))
    C[0] /= math.sqrt(2.0)
    return C


def p2_eigenvalues(m, n):
    """The M x N eigenvalues of -F at p = 2, mode (k, l) at [k, l]: 4 * (sin^2(pi k / 2M) + sin^2(pi l / 2N)).

    At p = 2 every coupling is 1, so F is the Neumann five-point Laplacian,
    which the 2-D DCT-II diagonalises; the top mode is (M - 1, N - 1).
    """
    k = np.arange(m)[:, None]
    l = np.arange(n)[None, :]
    return 4.0 * (np.sin(np.pi * k / (2 * m)) ** 2 + np.sin(np.pi * l / (2 * n)) ** 2)


def p2_step_power(m, n, eta, dt, steps):
    """Each DCT mode's 2 x 2 one-step map of (u, v) at p = 2, raised to ``steps``: shape (M * N, 2, 2).

    Mode (k, l) sits at row k * N + l.  From v = 0 the mode's u is scaled by
    ``[:, 0, 0]`` and its v by ``[:, 1, 0]``.
    """
    lam = p2_eigenvalues(m, n).ravel()
    c = 1.0 / (1.0 + 0.5 * eta * dt)
    # per mode, (u, v) -> (u_new, v_half) -> (u_new, v_new)
    kick_drift = np.empty((lam.size, 2, 2))
    kick_drift[:, 0, 0] = 1.0 - 0.5 * dt**2 * lam * c
    kick_drift[:, 0, 1] = dt * c
    kick_drift[:, 1, 0] = -0.5 * dt * lam * c
    kick_drift[:, 1, 1] = c
    kick = np.zeros((lam.size, 2, 2))
    kick[:, 0, 0] = 1.0
    kick[:, 1, 0] = -0.5 * dt * lam
    kick[:, 1, 1] = 1.0 - 0.5 * eta * dt
    return np.linalg.matrix_power(kick @ kick_drift, steps)


def p2_modal_flow(pixels, eta, dt, steps):
    """(u, v) as M x N arrays after ``steps`` damped Stormer-Verlet steps from v = 0 at p = 2.

    Each DCT mode's (u, v) evolves under README's 2x2 one-step map, here
    that map raised to the power ``steps`` (``p2_step_power``): one
    transform in and one out.
    """
    m, n = pixels.shape
    Cm, Cn = dct_matrix(m), dct_matrix(n)
    power = p2_step_power(m, n, eta, dt, steps)
    modes = (Cm @ pixels @ Cn.T).ravel()
    u_modes = power[:, 0, 0] * modes
    v_modes = power[:, 1, 0] * modes
    return tuple(Cm.T @ w.reshape(m, n) @ Cn for w in (u_modes, v_modes))


def p2_expected_error(clean, delta, eta, dt, steps):
    """E ||u_K - clean||^2 over the noise of ``add_noise`` at level ``delta``, K = ``steps`` at p = 2 from v = 0.

    The run scales DCT mode m of the noisy data by phi_m = ``p2_step_power``'s
    [m, 0, 0].  The noise clean * delta * U, U uniform on [-1, 1], has zero
    mean and independent pixels of variance clean^2 delta^2 / 3, so mode m of
    it has variance s_m^2 = (C_M o C_M) (clean^2 delta^2 / 3) (C_N o C_N)^T,
    o the entrywise product.  With c_m the modes of ``clean``, the bias and
    the variance add:  sum (phi_m - 1)^2 c_m^2 + sum phi_m^2 s_m^2.
    """
    m, n = clean.shape
    Cm, Cn = dct_matrix(m), dct_matrix(n)
    phi = p2_step_power(m, n, eta, dt, steps)[:, 0, 0]
    c_hat = (Cm @ clean @ Cn.T).ravel()
    s2 = ((Cm * Cm) @ (clean**2 * delta**2 / 3.0) @ (Cn * Cn).T).ravel()
    return float(np.sum((phi - 1.0) ** 2 * c_hat**2) + np.sum(phi**2 * s2))


def dense_A(F, eta, dt):
    """Half-kick-and-drift factor of the one-step map (implicit damping)."""
    n = F.shape[0]
    E = np.eye(n)
    c = 2.0 / (2.0 + eta * dt)
    return c * np.block(
        [
            [(1.0 + eta * dt / 2.0) * E + (dt**2 / 2.0) * F, dt * E],
            [(dt / 2.0) * F, E],
        ]
    )


def dense_B(F, eta, dt):
    """Closing half-kick acting on (u_new, v_half).

    v_new = v_half + dt/2 * (F u_new - eta v_half); only the velocity row
    carries the damping factor, the drift already happened in A.
    """
    n = F.shape[0]
    E = np.eye(n)
    Z = np.zeros((n, n))
    return np.block(
        [
            [E, Z],
            [(dt / 2.0) * F, (1.0 - eta * dt / 2.0) * E],
        ]
    )


def damped_oscillator(lam, eta, t):
    """Solution of w'' + eta w' + lam w = 0 with w(0) = 1, w'(0) = 0."""
    disc = eta * eta / 4.0 - lam
    if disc < 0:
        om = math.sqrt(-disc)
        return math.exp(-eta * t / 2.0) * (math.cos(om * t) + eta / (2.0 * om) * math.sin(om * t))
    if disc == 0:
        return math.exp(-eta * t / 2.0) * (1.0 + eta * t / 2.0)
    r = math.sqrt(disc)
    r1, r2 = -eta / 2.0 + r, -eta / 2.0 - r
    c1 = -r2 / (r1 - r2)
    c2 = r1 / (r1 - r2)
    return c1 * math.exp(r1 * t) + c2 * math.exp(r2 * t)


def mode_amplification_formula(lam, eta, dt):
    """Eigenvalue pair of the half-kick-and-drift factor for one stencil mode."""
    c = 2.0 / (2.0 + eta * dt)
    disc = complex((eta - dt * lam) ** 2 - 8.0 * lam)
    sq = np.sqrt(disc)
    return (
        c * (1.0 + dt / 4.0 * ((eta - dt * lam) + sq)),
        c * (1.0 + dt / 4.0 * ((eta - dt * lam) - sq)),
    )


def ssim_reference(x, y, window, window_sigma, k1, k2, dynamic_range):
    """Direct per-window SSIM with Gaussian weights, valid positions only."""
    r = (window - 1) // 2
    t = np.arange(-r, r + 1, dtype=np.float64)
    w1 = np.exp(-(t**2) / (2.0 * window_sigma**2))
    w1 /= w1.sum()
    w = np.outer(w1, w1)
    c1 = (k1 * dynamic_range) ** 2
    c2 = (k2 * dynamic_range) ** 2
    m, n = x.shape
    vals = []
    for i in range(m - window + 1):
        for j in range(n - window + 1):
            px = x[i : i + window, j : j + window]
            py = y[i : i + window, j : j + window]
            mx = float((w * px).sum())
            my = float((w * py).sum())
            vx = float((w * px * px).sum()) - mx * mx
            vy = float((w * py * py).sum()) - my * my
            cov = float((w * px * py).sum()) - mx * my
            vals.append(
                ((2 * mx * my + c1) * (2 * cov + c2))
                / ((mx * mx + my * my + c1) * (vx + vy + c2))
            )
    return float(np.mean(vals))
