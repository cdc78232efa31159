"""Acceptance suite: nine gate criteria, one pass/fail line printed each.

Criterion 3 asserts non-expansiveness of the one-step map under the step
rule dt = 0.9 * eta / sqrt(lambda_max) for eta in {1, 10, 300} and
monotone trajectory norms.  The map is non-expansive only when
dt * sqrt(lambda_max) <= 2, i.e. eta <= 2/0.9 under this rule, and the
Euclidean state norm is not a Lyapunov function of the damped oscillation
(see README, "Stability of the spectral step rule").  The criterion is
kept as stated and is expected to fail for the larger damping values.
"""

import time

import numpy as np
import pytest

import svddf
from svddf import (
    DiscrepancyStop,
    GaussianKernel,
    ImageGrid,
    MaxStepsOnly,
    NoiseSpec,
    RdeStop,
    SolverConfig,
    add_noise,
    array,
    diffusivity_half,
    discrepancy,
    high_freq_energy,
    initial_state,
    rde,
    run_svddf,
    ssim,
    sv_step,
    synth_image,
    to_dense,
    vec,
)
from svddf.cli import main as cli_main

from oracles import damped_oscillator, dense_A, dense_B, dense_stencil, naive_dft_energy


def _report(num: int, ok: bool, detail: str) -> bool:
    print(f"[criterion {num}] {'PASS' if ok else 'FAIL'}: {detail}")
    return ok


def remapped_disk(n: int) -> ImageGrid:
    """Disk fixture shifted into [0.25, 0.75] so multiplicative noise bites everywhere."""
    return ImageGrid(0.25 + 0.5 * synth_image("disk", n, n).pixels)


def test_criterion_1_operator_spectrum():
    rng = np.random.default_rng(101)
    t0 = time.perf_counter()
    worst_eig = -np.inf
    worst_rowsum = 0.0
    for trial in range(50):
        m = int(rng.integers(4, 17))
        n = int(rng.integers(4, 17))
        p = float(rng.choice([1.0, 1.5, 2.0]))
        eps = float(rng.choice([1e-2, 1e-1]))
        grid = ImageGrid(rng.uniform(size=(m, n)))
        fld = diffusivity_half(grid, eps, p, GaussianKernel(1.0))
        op = svddf.assemble(fld)
        dense = to_dense(op)
        assert np.array_equal(dense, dense.T), "assembled stencil must be symmetric"
        worst_rowsum = max(worst_rowsum, float(np.abs(dense.sum(axis=1)).max()))
        worst_eig = max(worst_eig, float(np.linalg.eigvalsh(dense)[-1]))
    elapsed = time.perf_counter() - t0
    ok = worst_eig <= 1e-10 and worst_rowsum <= 1e-12 and elapsed < 10.0
    _report(1, ok, f"max eig {worst_eig:.2e}, max |row sum| {worst_rowsum:.2e}, {elapsed:.1f}s")
    assert ok


def test_criterion_2_matrix_form_equivalence():
    rng = np.random.default_rng(202)
    t0 = time.perf_counter()
    worst = 0.0
    for trial in range(3):
        g = ImageGrid(rng.uniform(size=(8, 8)))
        cfg = SolverConfig(eta=1.5, exponent_p=1.0, max_steps=5, stopping=MaxStepsOnly())
        kern = cfg.kernel
        state = initial_state(g, cfg)
        z = np.concatenate([vec(g), np.zeros(64)])
        F_prev = dense_stencil(diffusivity_half(g, cfg.epsilon, cfg.exponent_p, kern))
        dt = svddf.flow.step_at_bound(cfg)[0]  # the run's one step
        for k in range(5):
            state = sv_step(state, cfg)
            u_pre = z[:64]
            if k == 0:
                F_new = F_prev
            else:
                fld = diffusivity_half(array(u_pre, 8, 8), cfg.epsilon, cfg.exponent_p, kern)
                F_new = dense_stencil(fld)
            z = dense_B(F_new, cfg.eta, dt) @ (dense_A(F_prev, cfg.eta, dt) @ z)
            F_prev = F_new
            worst = max(
                worst,
                float(np.max(np.abs(state.u - z[:64]))),
                float(np.max(np.abs(state.v - z[64:]))),
            )
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-10 and elapsed < 5.0
    _report(2, ok, f"max trajectory deviation {worst:.2e}, {elapsed:.1f}s")
    assert ok


def test_criterion_3_boundedness_under_spectral_step_rule():
    rng = np.random.default_rng(303)
    t0 = time.perf_counter()
    failures = []
    details = []

    # dense-oracle spectral radius of the one-step map on 6x6 grids
    fld = diffusivity_half(ImageGrid(rng.uniform(size=(6, 6))), 1e-2, 1.0, GaussianKernel(1.0))
    F = dense_stencil(fld)
    lam_top = float(-np.linalg.eigvalsh(F)[0])
    for eta in (1.0, 10.0, 300.0):
        dt = 0.9 * eta / np.sqrt(lam_top)
        BA = dense_B(F, eta, dt) @ dense_A(F, eta, dt)
        radius = float(np.max(np.abs(np.linalg.eigvals(BA))))
        details.append(f"eta={eta:g}: rho={radius:.3f}")
        if not radius <= 1.0 + 1e-10:
            failures.append(f"radius eta={eta:g} ({radius:.3f})")

    # trajectory norms over 1000 steps on 16x16 random starts
    for eta in (1.0, 10.0, 300.0):
        g = ImageGrid(rng.uniform(size=(16, 16)))
        cfg = SolverConfig(eta=eta, exponent_p=1.0, max_steps=1000, stopping=MaxStepsOnly())
        state = initial_state(g, cfg)
        prev = np.hypot(np.linalg.norm(state.u), np.linalg.norm(state.v))
        increases = 0
        worst_ratio = 1.0
        status = "completed"
        try:
            for _ in range(1000):
                state = sv_step(state, cfg)
                cur = np.hypot(np.linalg.norm(state.u), np.linalg.norm(state.v))
                if cur > prev * (1.0 + 1e-9):
                    increases += 1
                    worst_ratio = max(worst_ratio, cur / prev)
                prev = cur
        except svddf.SvddfError:
            status = f"diverged at step {state.k}"
            increases += 1
        details.append(f"eta={eta:g}: {increases} norm increases (max ratio {worst_ratio:.3f}, {status})")
        if increases:
            failures.append(f"trajectory eta={eta:g}")

    elapsed = time.perf_counter() - t0
    ok = not failures and elapsed < 30.0
    _report(3, ok, "; ".join(details) + f", {elapsed:.1f}s")
    assert ok, (
        "spectral step rule is not non-expansive for eta > 2 "
        "(see README, 'Stability of the spectral step rule'): " + ", ".join(failures)
    )


def test_criterion_4_second_order_accuracy():
    t0 = time.perf_counter()
    m, mode_index, eta, T = 32, 4, 0.3, 20.0
    lam = 4.0 * np.sin(np.pi * mode_index / (2 * m)) ** 2
    i = np.arange(m)
    px = np.tile(np.cos(np.pi * mode_index * (i + 0.5) / m)[:, None], (1, 2))
    u0 = ImageGrid(px)
    errs = []
    for dt in (0.25, 0.125):
        steps = int(round(T / dt))
        cfg = SolverConfig(
            eta=eta, exponent_p=2.0, dt=dt, max_steps=steps,
            stopping=MaxStepsOnly(),
        )
        out, _ = run_svddf(u0, cfg)
        errs.append(float(np.max(np.abs(out.pixels - damped_oscillator(lam, eta, T) * px))))
    ratio = errs[0] / errs[1]
    elapsed = time.perf_counter() - t0
    ok = 3.2 <= ratio <= 4.8 and elapsed < 5.0
    _report(4, ok, f"error ratio dt/(dt/2) = {ratio:.3f}, {elapsed:.1f}s")
    assert ok


def test_criterion_5_long_time_constant_limit():
    t0 = time.perf_counter()
    noisy = add_noise(synth_image("disk", 32, 32), NoiseSpec(delta=0.3, seed=11))
    cfg = SolverConfig(eta=2.0, exponent_p=1.0, max_steps=5000, stopping=MaxStepsOnly())
    state = initial_state(noisy, cfg)
    u0_norm = float(np.linalg.norm(state.u))
    mean0 = float(state.u.mean())
    worst_drift = 0.0
    for _ in range(5000):
        state = sv_step(state, cfg)
        worst_drift = max(worst_drift, abs(float(state.u.mean()) - mean0))
    distance = float(np.linalg.norm(state.u - mean0))
    elapsed = time.perf_counter() - t0
    ok = distance <= 1e-3 * u0_norm and worst_drift <= 1e-10 and elapsed < 60.0
    _report(
        5,
        ok,
        f"||u - mean||/||u0|| = {distance / u0_norm:.2e}, mean drift {worst_drift:.2e}, {elapsed:.1f}s",
    )
    assert ok


def test_criterion_6_coefficient_upper_bound():
    rng = np.random.default_rng(606)
    t0 = time.perf_counter()
    eps = 1e-2
    worst_excess = -np.inf
    kern = GaussianKernel(1.0)
    for _ in range(100):
        grid = ImageGrid(rng.uniform(size=(16, 16)))
        for p in (1.0, 1.5, 2.0):
            ai, aj = diffusivity_half(grid, eps, p, kern)
            bound = eps ** ((p - 2.0) / 2.0)
            for arr in (ai[:-1], aj[:, :-1]):
                worst_excess = max(worst_excess, float(arr.max()) - bound)
    elapsed = time.perf_counter() - t0
    ok = worst_excess <= 1e-14 and elapsed < 5.0
    _report(6, ok, f"max excess over epsilon^((p-2)/2): {worst_excess:.2e}, {elapsed:.1f}s")
    assert ok


def test_criterion_7_stopping_rules():
    rng = np.random.default_rng(707)
    t0 = time.perf_counter()
    checks = []

    u0 = rng.uniform(size=64) + 0.25
    res = discrepancy(u0, u0, 0.37)
    checks.append(("chi(0) == -delta exactly", res.chi == -0.37 and res.sigma == 0.0))

    noisy = add_noise(synth_image("disk", 32, 32), NoiseSpec(delta=0.3, seed=5))
    cfg = SolverConfig(
        eta=2.0, exponent_p=1.0, max_steps=2000, stopping=DiscrepancyStop(delta=0.3)
    )
    _, log = run_svddf(noisy, cfg)
    checks.append(
        ("discrepancy fires at a finite step", log.stopped_by == "discrepancy" and len(log) < 2000)
    )

    g = ImageGrid(rng.uniform(size=(12, 12)))
    checks.append(("rde of identical iterates is 0", rde(g, g, 5) == 0.0))

    g16 = ImageGrid(rng.uniform(size=(16, 16)))
    worst_rel = 0.0
    for n0 in (0, 5, 18, 30):
        ours = high_freq_energy(g16, n0)
        ref = naive_dft_energy(g16.pixels, n0)
        worst_rel = max(worst_rel, abs(ours - ref) / ref)
    checks.append(("high-frequency energy matches naive DFT to 1e-9", worst_rel <= 1e-9))

    elapsed = time.perf_counter() - t0
    ok = all(flag for _, flag in checks) and elapsed < 10.0
    detail = "; ".join(f"{name}: {'ok' if flag else 'FAIL'}" for name, flag in checks)
    _report(7, ok, detail + f", dft rel err {worst_rel:.1e}, {elapsed:.1f}s")
    assert ok


def test_criterion_8_denoising_trend():
    t0 = time.perf_counter()
    clean = remapped_disk(128)
    noisy = add_noise(clean, NoiseSpec(delta=0.54, seed=7))
    ssim_noisy = ssim(noisy, clean)

    cfg_good = SolverConfig(
        exponent_p=1.0, eta=300.0, dt=0.15,
        max_steps=3000, stopping=RdeStop(tolerance=1e-4),
    )
    good, log_good = run_svddf(noisy, cfg_good)
    ssim_good = ssim(good, clean)

    cfg_poor = SolverConfig(
        exponent_p=2.0, eta=0.001, dt=0.15,
        max_steps=3000, stopping=RdeStop(tolerance=1e-4),
    )
    poor, log_poor = run_svddf(noisy, cfg_poor)
    ssim_poor = ssim(poor, clean)

    elapsed = time.perf_counter() - t0
    gain = ssim_good - ssim_noisy
    ok = gain >= 0.15 and ssim_good > ssim_poor and elapsed < 120.0
    _report(
        8,
        ok,
        f"ssim noisy {ssim_noisy:.3f} -> p=1/eta=300 {ssim_good:.3f} "
        f"({log_good.steps} steps) vs p=2/eta=0.001 {ssim_poor:.3f} "
        f"({log_poor.steps} steps), gain {gain:+.3f}, {elapsed:.1f}s",
    )
    assert ok


def test_criterion_9_cli_determinism(tmp_path):
    from svddf import write_pgm

    clean_path = tmp_path / "disk.pgm"
    write_pgm(remapped_disk(24), clean_path)
    payloads = []
    for name in ("first", "second"):
        out = tmp_path / name
        rc = cli_main(
            ["add-noise", str(clean_path), "--delta", "0.4", "--seed", "3", "--out", str(out)]
        )
        assert rc == 0
        rc = cli_main(
            [
                "denoise",
                str(out / "disk_noisy.pgm"),
                "--clean",
                str(clean_path),
                "--eta", "2", "--p", "1", "--stop", "none", "--max-steps", "40",
                "--out", str(out),
            ]
        )
        assert rc == 0
        payloads.append(
            tuple(
                (out / f).read_bytes()
                for f in (
                    "disk_noisy.pgm",
                    "disk_noisy_denoised.pgm",
                    "disk_noisy_trajectory.csv",
                    "disk_noisy_metrics.csv",
                )
            )
        )
    ok = payloads[0] == payloads[1]
    _report(9, ok, "byte-identical noisy/denoised PGM and CSV logs across reruns")
    assert ok
