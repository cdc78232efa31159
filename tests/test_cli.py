import math
import types

import numpy as np
import pytest

import svddf
from svddf import ImageGrid, read_pgm, synth_image, write_pgm
from svddf.cli import main

STABILITY_NOTE = "see README 'Stability of the spectral step rule'"
FIXED_STEP_NOTE = "see README 'Fixed step lengths'"


@pytest.fixture
def disk_pgm(tmp_path):
    base = synth_image("disk", 24, 24)
    remapped = ImageGrid(0.25 + 0.5 * base.pixels)
    path = tmp_path / "disk.pgm"
    write_pgm(remapped, path)
    return path


@pytest.fixture
def disk64_pgms(tmp_path):
    """The benchmark's 64 x 64 sweep input at seed 1: clean and noisy 16-bit PGMs."""
    clean = ImageGrid(0.25 + 0.5 * synth_image("disk", 64, 64).pixels)
    noisy = svddf.add_noise(clean, svddf.NoiseSpec(delta=0.54, seed=1))
    paths = tmp_path / "disk.pgm", tmp_path / "disk_noisy.pgm"
    for grid, path in zip((clean, noisy), paths):
        write_pgm(grid, path, maxval=65535)
    return paths


# p = 2 at eta = 100 under --dt auto grows for 300 steps without a
# non-finite iterate, to values whose SSIM moments overflow
OVERFLOWING_RUN = ["--dt", "auto", "--stop", "none", "--max-steps", "300"]


@pytest.fixture
def noisy_pgm(tmp_path, disk_pgm):
    rc = main(["add-noise", str(disk_pgm), "--delta", "0.4", "--seed", "9", "--out", str(tmp_path)])
    assert rc == 0
    return tmp_path / "disk_noisy.pgm"


class TestAddNoise:
    def test_zero_delta_identity_up_to_quantization(self, tmp_path, disk_pgm):
        out = tmp_path / "zero"
        rc = main(["add-noise", str(disk_pgm), "--delta", "0", "--seed", "1", "--out", str(out)])
        assert rc == 0
        a = read_pgm(disk_pgm)
        b = read_pgm(out / "disk_noisy.pgm")
        assert np.max(np.abs(a.pixels - b.pixels)) <= 0.5 / 255 + 1e-12

    def test_same_seed_same_bytes(self, tmp_path, disk_pgm):
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            rc = main(
                ["add-noise", str(disk_pgm), "--delta", "0.3", "--seed", "7", "--out", str(out)]
            )
            assert rc == 0
            outs.append((out / "disk_noisy.pgm").read_bytes())
        assert outs[0] == outs[1]

    def test_sidecar_records_parameters(self, tmp_path, disk_pgm):
        rc = main(["add-noise", str(disk_pgm), "--delta", "0.25", "--seed", "12", "--out", str(tmp_path)])
        assert rc == 0
        sidecar = (tmp_path / "disk_noisy.txt").read_text()
        assert "delta=0.25" in sidecar
        assert "seed=12" in sidecar

    def test_config_file_sets_delta_and_seed(self, tmp_path, disk_pgm):
        conf = tmp_path / "noise.conf"
        conf.write_text("delta=0.25\nseed=12\n")
        out = tmp_path / "conf"
        assert main(["add-noise", str(disk_pgm), "--config", str(conf), "--out", str(out)]) == 0
        assert (out / "disk_noisy.txt").read_text() == "delta=0.25\nseed=12\n"
        assert main(["add-noise", str(disk_pgm), "--delta", "0.25", "--seed", "12", "--out", str(tmp_path)]) == 0
        assert (out / "disk_noisy.pgm").read_bytes() == (tmp_path / "disk_noisy.pgm").read_bytes()

    @pytest.mark.parametrize("line", ["eta=2", "max-steps=5", "stop=none"])
    def test_config_file_solver_key_exits_2(self, tmp_path, disk_pgm, capsys, line):
        conf = tmp_path / "noise.conf"
        conf.write_text("delta=0.25\n" + line + "\n")
        out = tmp_path / "bad"
        assert main(["add-noise", str(disk_pgm), "--config", str(conf), "--out", str(out)]) == 2
        key = line.split("=")[0].replace("-", "_")
        assert f"{conf}:2: unknown key '{key}' for add-noise" in capsys.readouterr().err
        assert not out.exists()

    def test_noise_level_on_disk_fixture(self, tmp_path):
        # delta = 0.54 multiplicative uniform noise lands near delta/sqrt(3);
        # the disk is shifted into [0.25, 0.75] so the writer's clipping to
        # [0, 1] barely bites (the plain indicator would lose a third of it)
        clean = ImageGrid(0.25 + 0.5 * synth_image("disk", 128, 128).pixels)
        path = tmp_path / "d.pgm"
        write_pgm(clean, path)
        rc = main(["add-noise", str(path), "--delta", "0.54", "--seed", "7", "--out", str(tmp_path)])
        assert rc == 0
        noisy = read_pgm(tmp_path / "d_noisy.pgm")
        err = svddf.rel_l2(svddf.vec(noisy), svddf.vec(clean))
        assert 0.25 <= err <= 0.35

    def test_missing_input(self, tmp_path):
        rc = main(["add-noise", str(tmp_path / "nope.pgm"), "--delta", "0.1"])
        assert rc == 2


class TestDenoise:
    def test_writes_outputs_and_reports_stop(self, tmp_path, disk_pgm, noisy_pgm, capsys):
        out = tmp_path / "run"
        rc = main(
            [
                "denoise",
                str(noisy_pgm),
                "--clean",
                str(disk_pgm),
                "--eta",
                "2",
                "--p",
                "1",
                "--stop",
                "rde",
                "--tol",
                "1e-3",
                "--max-steps",
                "300",
                "--out",
                str(out),
            ]
        )
        assert rc == 0
        assert (out / "disk_noisy_denoised.pgm").exists()
        csv = (out / "disk_noisy_trajectory.csv").read_text().splitlines()
        assert csv[0].startswith("step,t,dt,")
        printed = capsys.readouterr().out
        assert "stopped by" in printed
        metrics = (out / "disk_noisy_metrics.csv").read_text().splitlines()
        assert metrics[0] == "image_id,p,eta,steps,ssim_noisy,ssim_denoised,rel_err"

    def test_first_order_dispatch(self, tmp_path, noisy_pgm):
        out = tmp_path / "fo"
        rc = main(
            [
                "denoise",
                str(noisy_pgm),
                "--method",
                "first-order",
                "--stop",
                "none",
                "--max-steps",
                "10",
                "--out",
                str(out),
            ]
        )
        assert rc == 0
        assert (out / "disk_noisy_denoised.pgm").exists()

    def test_missing_input_exits_2_without_outputs(self, tmp_path):
        out = tmp_path / "never"
        rc = main(["denoise", str(tmp_path / "ghost.pgm"), "--out", str(out)])
        assert rc == 2
        assert not out.exists()

    def test_divergence_exits_1_and_keeps_partial_csv(self, tmp_path, noisy_pgm):
        # p = 2 keeps the stencil linear, so the oversized spectral step at
        # eta = 300 grows without the nonlinear saturation p < 2 would give
        out = tmp_path / "boom"
        rc = main(
            [
                "denoise",
                str(noisy_pgm),
                "--p",
                "2",
                "--eta",
                "300",
                "--dt",
                "auto",
                "--stop",
                "none",
                "--max-steps",
                "3000",
                "--out",
                str(out),
            ]
        )
        assert rc == 1
        assert (out / "disk_noisy_trajectory.csv").exists()
        assert not (out / "disk_noisy_denoised.pgm").exists()

    def test_overflowing_ssim_exits_1_after_writing_outputs(self, tmp_path, disk64_pgms, capsys):
        clean, noisy = disk64_pgms
        out = tmp_path / "over"
        argv = ["denoise", str(noisy), "--clean", str(clean), "--p", "2", "--eta", "100", "--out", str(out)]
        assert main(argv + OVERFLOWING_RUN) == 1
        assert "error: SSIM is not finite" in capsys.readouterr().err
        assert (out / "disk_noisy_denoised.pgm").exists()
        assert len((out / "disk_noisy_trajectory.csv").read_text().splitlines()) == 301
        assert not (out / "disk_noisy_metrics.csv").exists()

    def test_deterministic_byte_identical_outputs(self, tmp_path, disk_pgm, noisy_pgm):
        payloads = []
        for name in ("r1", "r2"):
            out = tmp_path / name
            rc = main(
                [
                    "denoise",
                    str(noisy_pgm),
                    "--clean",
                    str(disk_pgm),
                    "--eta",
                    "2",
                    "--max-steps",
                    "40",
                    "--stop",
                    "none",
                    "--out",
                    str(out),
                ]
            )
            assert rc == 0
            payloads.append(
                (
                    (out / "disk_noisy_denoised.pgm").read_bytes(),
                    (out / "disk_noisy_trajectory.csv").read_bytes(),
                    (out / "disk_noisy_metrics.csv").read_bytes(),
                )
            )
        assert payloads[0] == payloads[1]

    def test_config_file_and_flag_precedence(self, tmp_path, noisy_pgm):
        conf = tmp_path / "run.conf"
        conf.write_text("dt=0.125\nmax-steps=5\nstop=none\neta=2.0\n")
        out1 = tmp_path / "c1"
        assert main(["denoise", str(noisy_pgm), "--config", str(conf), "--out", str(out1)]) == 0
        line = (out1 / "disk_noisy_trajectory.csv").read_text().splitlines()[1]
        assert float(line.split(",")[2]) == 0.125
        out2 = tmp_path / "c2"
        assert (
            main(
                [
                    "denoise",
                    str(noisy_pgm),
                    "--config",
                    str(conf),
                    "--dt",
                    "0.0625",
                    "--out",
                    str(out2),
                ]
            )
            == 0
        )
        line = (out2 / "disk_noisy_trajectory.csv").read_text().splitlines()[1]
        assert float(line.split(",")[2]) == 0.0625

    @pytest.mark.parametrize("conf_line, flags", [("n0=0", ["--n0", "0"])])
    def test_config_file_sets_band_threshold(self, tmp_path, noisy_pgm, conf_line, flags):
        conf = tmp_path / "run.conf"
        conf.write_text(conf_line + "\n")
        base = ["denoise", str(noisy_pgm), "--dt", "0.125", "--max-steps", "5", "--tol", "1e-12"]
        trajectories = []
        for name, extra in (("file", ["--config", str(conf)]), ("flag", flags), ("none", [])):
            out = tmp_path / name
            assert main(base + extra + ["--out", str(out)]) == 0
            trajectories.append((out / "disk_noisy_trajectory.csv").read_bytes())
        assert trajectories[0] == trajectories[1]
        assert trajectories[0] != trajectories[2]

    def test_config_file_unknown_key_exits_2(self, tmp_path, disk_pgm, noisy_pgm, capsys):
        # sweep takes p and eta from --ps and --etas only
        sweep = ["sweep", "--clean", str(disk_pgm), "--etas", "1", "--ps", "1"]
        cases = [(["denoise"], "eta=2\netaa=1\n", "2: unknown key 'etaa'")]
        cases += [(sweep, "p=1.5\n", "1: unknown key 'p' for sweep"), (sweep, "eta=3\n", "1: unknown key 'eta' for sweep")]
        for i, (verb, conf_text, message) in enumerate(cases):
            conf = tmp_path / f"run{i}.conf"
            conf.write_text(conf_text)
            out = tmp_path / f"bad{i}"
            assert main(verb + [str(noisy_pgm), "--config", str(conf), "--out", str(out)]) == 2
            assert f"{conf}:{message}" in capsys.readouterr().err
            assert not out.exists()

    def test_config_line_without_equals_exits_2(self, tmp_path, noisy_pgm, capsys):
        conf = tmp_path / "run.conf"
        conf.write_text("\n# eta=3\n   \neta 2\n")  # blank and comment-only lines are skipped
        out = tmp_path / "bad"
        assert main(["denoise", str(noisy_pgm), "--config", str(conf), "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"error: {conf}:4: expected key=value, got 'eta 2'\n"
        assert not out.exists()

    @pytest.mark.parametrize("verb", ["denoise", "sweep"])
    def test_config_file_seed_key_exits_2(self, tmp_path, disk_pgm, noisy_pgm, capsys, verb):
        conf = tmp_path / "run.conf"
        conf.write_text("max-steps=2\nseed=3\n")
        out = tmp_path / "bad"
        argv = [verb, str(noisy_pgm), "--config", str(conf), "--out", str(out)]
        if verb == "sweep":
            argv += ["--clean", str(disk_pgm), "--etas", "1", "--ps", "1"]
        assert main(argv) == 2
        assert f"{conf}:2: unknown key 'seed' for {verb}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "conf_text, flags, message",
        [
            ("", ["--dt", "abc"], "invalid value for dt: 'abc'"),
            ("n0=abc\n", [], "invalid value for n0: 'abc'"),
            ("stop=bogus\n", [], "invalid value for stop: 'bogus'"),
            ("method=bogus\n", [], "invalid value for method: 'bogus'"),
            ("", ["--n0", "-1"], "n0 must be non-negative, got -1"),
            ("", ["--n0", "47"], "n0 = 47 leaves the band empty: the largest index sum of a 24 x 24 image is 46"),
        ],
        ids=["flag-dt", "config-n0", "config-stop", "config-method", "flag-negative-n0", "flag-empty-band-n0"],
    )
    def test_malformed_value_exits_2(self, tmp_path, noisy_pgm, capsys, conf_text, flags, message):
        conf = tmp_path / "run.conf"
        conf.write_text(conf_text)
        out = tmp_path / "bad"
        argv = ["denoise", str(noisy_pgm), "--config", str(conf), "--out", str(out)] + flags
        assert main(argv) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("conf_text, flags", [("", ["--dt", "0.15"]), ("dt=0.15\n", [])])
    def test_dt_max_with_fixed_dt_exits_2(self, tmp_path, noisy_pgm, capsys, conf_text, flags):
        conf = tmp_path / "run.conf"
        conf.write_text(conf_text)
        out = tmp_path / "bad"
        argv = ["denoise", str(noisy_pgm), "--config", str(conf), "--dt-max", "0.01", "--out", str(out)]
        assert main(argv + flags) == 2
        assert "dt_max caps the theorem rule" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("value", ["-0.1", "0", "nan"])
    def test_non_positive_dt_max_exits_2(self, tmp_path, noisy_pgm, capsys, value):
        out = tmp_path / "bad"
        argv = ["denoise", str(noisy_pgm), "--dt", "auto", "--dt-max", value, "--out", str(out)]
        assert main(argv) == 2
        assert "dt_max must be positive" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "flag, field, verb",
        [
            (flag, field, verb)
            for verb in ("denoise", "sweep")
            for flag, field in (
                ("--eta", "eta"),
                ("--epsilon", "epsilon"),
                ("--sigma", "sigma"),
                ("--dt", "dt_fixed"),
                ("--dt-max", "dt_max"),
            )
            # sweep has no --eta; TestSweep checks an infinite --etas value
            if (flag, verb) != ("--eta", "sweep")
        ],
    )
    def test_infinite_solver_value_exits_2(self, tmp_path, disk_pgm, noisy_pgm, capsys, verb, flag, field):
        out = tmp_path / "bad"
        argv = [verb, str(noisy_pgm), "--stop", "none", "--max-steps", "3", "--out", str(out), flag, "inf"]
        if verb == "sweep":
            argv += ["--clean", str(disk_pgm), "--etas", "2", "--ps", "1"]
        assert main(argv) == 2
        assert capsys.readouterr().err == f"error: {field} must be finite, got inf\n"
        assert not out.exists()

    # numpy refuses the taps of both: an index range past its limit, then an allocation of 42.6 PiB
    @pytest.mark.parametrize("verb", ["denoise", "sweep"])
    @pytest.mark.parametrize("sigma, message", [
        ("1e300", "sigma = 1e+300 is too large: radius 3e+150 needs 6e+150 taps"),
        ("1e30", "sigma = 1e+30 is too large: radius 3e+15 needs 6e+15 taps"),
    ])
    def test_sigma_without_formable_taps_exits_2(self, tmp_path, disk_pgm, noisy_pgm, capsys, verb, sigma, message):
        out = tmp_path / "bad"
        argv = [verb, str(noisy_pgm), "--stop", "none", "--max-steps", "3", "--out", str(out), "--sigma", sigma]
        if verb == "sweep":
            argv += ["--clean", str(disk_pgm), "--etas", "2", "--ps", "1"]
        assert main(argv) == 2
        assert capsys.readouterr().err == f"error: {message}, more than numpy can allocate\n"
        assert not out.exists()

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--stop", "a-priori", "--delta", "10", "--gamma", "400"], "error: T(delta) is not finite for delta=10.0"),
            (["--stop", "a-priori", "--delta", "inf"], "error: delta must be finite, got inf"),
            (["--stop", "discrepancy", "--delta", "nan"], "error: delta must be finite, got nan"),
            (["--stop", "discrepancy", "--delta", "inf"], "error: delta must be finite, got inf"),
        ],
    )
    def test_stop_rule_without_reachable_threshold_exits_2(self, tmp_path, noisy_pgm, capsys, flags, message):
        out = tmp_path / "bad"
        assert main(["denoise", str(noisy_pgm), "--max-steps", "30", "--out", str(out)] + flags) == 2
        assert capsys.readouterr().err.startswith(message)
        assert not out.exists()

    def test_seed_flag_rejected(self, tmp_path, noisy_pgm, capsys):
        out = tmp_path / "bad"
        assert main(["denoise", str(noisy_pgm), "--seed", "3", "--out", str(out)]) == 2
        assert "unrecognized arguments: --seed 3" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "flags,warned",
        [
            (["--eta", "3", "--dt", "auto"], True),  # safety * eta = 2.7
            (["--eta", "2", "--dt", "auto"], False),  # 1.8
            (["--eta", "2", "--dt", "auto", "--safety", "1"], False),  # 2, the stable edge
            (["--eta", "3", "--dt", "0.15"], False),
            (["--eta", "3", "--dt", "auto", "--method", "first-order"], False),
        ],
    )
    def test_auto_dt_stability_warning(self, tmp_path, noisy_pgm, capsys, flags, warned):
        argv = ["denoise", str(noisy_pgm), "--stop", "none", "--max-steps", "3"]
        assert main(argv + ["--out", str(tmp_path / "w")] + flags) == 0
        captured = capsys.readouterr()
        assert captured.err.count(STABILITY_NOTE) == int(warned)
        assert captured.out == "stopped by max-steps after 3 steps\n"


class Captured(Exception):
    """Raised in place of the flow or the noise model, carrying what it was handed."""


# a valid value of each option other than its default, a second one, and the
# flags under which the option changes what the verb hands on
OPTION_CASES = {
    "p": ("1.5", "2", []),
    "eta": ("3", "0.5", []),
    "epsilon": ("0.05", "0.2", []),
    "sigma": ("2", "0.5", []),
    "dt": ("0.125", "auto", []),
    "safety": ("0.5", "1", []),
    "dt_max": ("0.3", "0.6", []),
    "max_steps": ("7", "9", []),
    "stop": ("discrepancy", "none", []),
    "tol": ("1e-3", "1e-2", []),
    "n0": ("5", "0", []),
    "delta": ("0.2", "0.3", ["--stop", "a-priori"]),
    "c1": ("2", "4", ["--stop", "a-priori"]),
    "c2": ("3", "5", ["--stop", "a-priori"]),
    "gamma": ("0.5", "2", ["--stop", "a-priori"]),
    "method": ("first-order", "svddf", []),
    "seed": ("4", "5", []),
}
VERB_OPTIONS = [("denoise", key) for key in svddf.cli._SOLVER_KEYS]
VERB_OPTIONS += [("add-noise", key) for key in svddf.cli._NOISE_KEYS]


def option_case(verb, key):
    """``OPTION_CASES[key]``, with the solver flags left out under add-noise."""
    value, other, base = OPTION_CASES[key]
    return value, other, base if verb == "denoise" else []


class TestOneParsePath:
    """A config line ``key=value`` and the flag ``--key value`` are parsed by the same code."""

    @pytest.fixture
    def resolve(self, tmp_path, disk_pgm, noisy_pgm, monkeypatch):
        """What main hands the flow (denoise) or the noise model (add-noise), given a config text and flags."""

        def capture(*handed):
            raise Captured(handed)

        monkeypatch.setattr(svddf.cli, "run_svddf", lambda *a, **k: capture("svddf", a[1]))
        monkeypatch.setattr(svddf.cli, "run_first_order", lambda *a, **k: capture("first-order", a[1]))
        monkeypatch.setattr(svddf.cli, "add_noise", lambda clean, spec: capture(spec))

        def run(verb, conf_text, flags):
            conf = tmp_path / "run.conf"
            conf.write_text(conf_text)
            image = disk_pgm if verb == "add-noise" else noisy_pgm
            argv = [verb, str(image), "--config", str(conf), "--out", str(tmp_path / "out")]
            with pytest.raises(Captured) as caught:
                main(argv + flags)
            return caught.value.args[0]

        return run

    def test_cases_cover_every_option(self):
        assert set(OPTION_CASES) == set(svddf.cli._OPTIONS)
        assert {key for _, key in VERB_OPTIONS} == set(svddf.cli._OPTIONS)

    @pytest.mark.parametrize("verb, key", VERB_OPTIONS)
    def test_config_line_resolves_like_flag(self, resolve, verb, key):
        value, _, base = option_case(verb, key)
        flag = "--" + key.replace("_", "-")
        from_file = resolve(verb, f"{key}={value}\n", base)
        assert from_file == resolve(verb, "", base + [flag, value])
        assert from_file != resolve(verb, "", base)

    @pytest.mark.parametrize("verb, key", VERB_OPTIONS)
    def test_flag_overrides_config_line(self, resolve, verb, key):
        value, other, base = option_case(verb, key)
        flag = "--" + key.replace("_", "-")
        overridden = resolve(verb, f"{key}={value}\n", base + [flag, other])
        assert overridden == resolve(verb, "", base + [flag, other])
        assert overridden != resolve(verb, "", base + [flag, value])

    @pytest.mark.parametrize("route", ["config", "flag"])
    @pytest.mark.parametrize("verb, key", VERB_OPTIONS)
    def test_malformed_value_exits_2(self, tmp_path, disk_pgm, noisy_pgm, capsys, verb, key, route):
        conf = tmp_path / "run.conf"
        conf.write_text(f"{key}=abc\n" if route == "config" else "")
        flags = ["--" + key.replace("_", "-"), "abc"] if route == "flag" else []
        image = disk_pgm if verb == "add-noise" else noisy_pgm
        out = tmp_path / "bad"
        assert main([verb, str(image), "--config", str(conf), "--out", str(out)] + flags) == 2
        assert f"invalid value for {key}: 'abc'" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("conf_text, flags", [("stop=bogus\n", []), ("", ["--stop", "bogus"])])
    def test_bad_stop_lists_the_choices(self, tmp_path, noisy_pgm, capsys, conf_text, flags):
        conf = tmp_path / "run.conf"
        conf.write_text(conf_text)
        assert main(["denoise", str(noisy_pgm), "--config", str(conf)] + flags) == 2
        err = capsys.readouterr().err
        assert "invalid value for stop: 'bogus'" in err
        assert "(choose from 'rde', 'discrepancy', 'a-priori', 'none')" in err

    def test_help_lists_the_choices(self, capsys):
        assert main(["denoise", "--help"]) == 0
        printed = capsys.readouterr().out
        assert "--stop {rde,discrepancy,a-priori,none}" in printed
        assert "--method {svddf,first-order}" in printed

    def test_literal_band_threshold_option_is_gone(self, tmp_path, noisy_pgm, capsys):
        conf = tmp_path / "run.conf"
        conf.write_text("rde-literal-n0=true\n")
        out = tmp_path / "bad"
        assert main(["denoise", str(noisy_pgm), "--config", str(conf), "--out", str(out)]) == 2
        assert f"{conf}:1: unknown key 'rde_literal_n0' for denoise" in capsys.readouterr().err
        assert main(["denoise", str(noisy_pgm), "--rde-literal-n0", "--out", str(out)]) == 2
        assert "unrecognized arguments: --rde-literal-n0" in capsys.readouterr().err
        assert not out.exists()


class TestHeapSettings:
    @staticmethod
    def denoise(tmp_path, noisy_pgm):
        argv = ["denoise", str(noisy_pgm), "--stop", "none", "--max-steps", "2"]
        return main(argv + ["--out", str(tmp_path / "heap")])

    def test_missing_c_library_is_ignored(self, tmp_path, noisy_pgm, monkeypatch):
        def no_library(name):
            raise OSError("cannot load the C library")

        monkeypatch.setattr("svddf.cli.ctypes.CDLL", no_library)
        assert self.denoise(tmp_path, noisy_pgm) == 0

    def test_library_without_mallopt_is_ignored(self, tmp_path, noisy_pgm, monkeypatch):
        monkeypatch.setattr("svddf.cli.ctypes.CDLL", lambda name: types.SimpleNamespace())
        assert self.denoise(tmp_path, noisy_pgm) == 0

    @pytest.mark.parametrize(
        "accepted,expected",
        [(1, [(-3, 64 << 20), (-1, 256 << 20)]), (0, [(-3, 64 << 20)])],
    )
    def test_thresholds_set_by_main(self, tmp_path, noisy_pgm, monkeypatch, accepted, expected):
        # a refused mmap threshold leaves the trim threshold alone too
        calls = []

        def mallopt(param, value):
            calls.append((param, value))
            return accepted

        monkeypatch.setattr("svddf.cli.ctypes.CDLL", lambda name: types.SimpleNamespace(mallopt=mallopt))
        assert self.denoise(tmp_path, noisy_pgm) == 0
        assert calls == expected


class TestSweep:
    def test_single_cell_matches_denoise(self, tmp_path, disk_pgm, noisy_pgm):
        out = tmp_path / "sweep1"
        args = [
            str(noisy_pgm),
            "--clean",
            str(disk_pgm),
            "--dt",
            "0.15",
            "--stop",
            "none",
            "--max-steps",
            "30",
            "--out",
            str(out),
        ]
        rc = main(["sweep", args[0], "--etas", "2", "--ps", "1"] + args[1:])
        assert rc == 0
        rows = (out / "sweep.csv").read_text().splitlines()
        assert rows[0] == "p\\eta,2"
        cell = float(rows[1].split(",")[1])

        rc = main(["denoise"] + args)
        assert rc == 0
        metrics = (out / "disk_noisy_metrics.csv").read_text().splitlines()[1]
        assert cell == pytest.approx(float(metrics.split(",")[5]), rel=1e-12)

    def test_duplicates_deduplicated_with_warning(self, tmp_path, disk_pgm, noisy_pgm, capsys):
        out = tmp_path / "sweepdup"
        rc = main(
            [
                "sweep",
                str(noisy_pgm),
                "--clean",
                str(disk_pgm),
                "--etas",
                "2,2",
                "--ps",
                "1",
                "--dt",
                "0.15",
                "--stop",
                "none",
                "--max-steps",
                "5",
                "--out",
                str(out),
            ]
        )
        assert rc == 0
        assert "duplicate" in capsys.readouterr().err
        assert (out / "sweep.csv").read_text().splitlines()[0] == "p\\eta,2"

    def test_failed_cell_recorded_as_nan(self, tmp_path, disk_pgm, noisy_pgm):
        out = tmp_path / "sweepnan"
        rc = main(
            [
                "sweep",
                str(noisy_pgm),
                "--clean",
                str(disk_pgm),
                "--etas",
                "300,2",
                "--ps",
                "2",
                "--dt",
                "auto",
                "--stop",
                "none",
                "--max-steps",
                "2000",
                "--out",
                str(out),
            ]
        )
        assert rc == 0
        row = (out / "sweep.csv").read_text().splitlines()[1].split(",")
        assert row[1] == "nan"
        assert not math.isnan(float(row[2]))

    def test_overflowing_ssim_cell_fails(self, tmp_path, disk64_pgms, capsys):
        clean, noisy = disk64_pgms
        out = tmp_path / "over"
        argv = ["sweep", str(noisy), "--clean", str(clean), "--ps", "2", "--etas", "1,100", "--out", str(out)]
        assert main(argv + OVERFLOWING_RUN) == 0
        captured = capsys.readouterr()
        assert "p=2 eta=1: ssim=" in captured.out
        assert "p=2 eta=100: failed (SSIM is not finite" in captured.err
        row = (out / "sweep.csv").read_text().splitlines()[1].split(",")
        assert row[0] == "2" and row[2] == "nan"
        assert not math.isnan(float(row[1]))

    def test_auto_dt_stability_warning_per_cell(self, tmp_path, disk_pgm, noisy_pgm, capsys):
        argv = ["sweep", str(noisy_pgm), "--clean", str(disk_pgm), "--etas", "1,3", "--ps", "1,2"]
        argv += ["--dt", "auto", "--stop", "none", "--max-steps", "3", "--out", str(tmp_path / "s")]
        assert main(argv) == 0
        captured = capsys.readouterr()
        # one line for each eta = 3 cell (safety * eta = 2.7), none for eta = 1
        assert captured.err.count(STABILITY_NOTE) == 2
        assert len(captured.out.splitlines()) == 5
        assert STABILITY_NOTE not in captured.out

    @pytest.mark.parametrize(
        "method,dt,warned_ps",
        [
            # explicit Euler's bound 2h^2/(8 epsilon^((p-2)/2)): 0.025, 0.079, 0.25
            ("first-order", "0.15", {"1", "1.5"}),
            ("first-order", "0.02", set()),
            # svddf's bound 2h/sqrt(8 epsilon^((p-2)/2)): 0.224, 0.398, 0.707
            ("svddf", "0.15", set()),
            ("svddf", "0.3", {"1"}),
        ],
    )
    def test_fixed_dt_stability_warning_per_cell(
        self, tmp_path, disk_pgm, noisy_pgm, capsys, method, dt, warned_ps
    ):
        # first-order at dt = 0.15 scores SSIM ~0 on every p = 1 cell, so it must not run silently
        argv = ["sweep", str(noisy_pgm), "--clean", str(disk_pgm), "--etas", "1,300", "--ps", "1,1.5,2"]
        argv += ["--method", method, "--dt", dt, "--stop", "rde", "--max-steps", "300"]
        assert main(argv + ["--out", str(tmp_path / "s")]) == 0
        captured = capsys.readouterr()
        lines = [line for line in captured.err.splitlines() if FIXED_STEP_NOTE in line]
        assert sorted(line.split("p=")[1].split(",")[0] for line in lines) == sorted(2 * list(warned_ps))
        assert FIXED_STEP_NOTE not in captured.out
        assert len(captured.out.splitlines()) == 7

    def test_malformed_list_value_exits_2(self, tmp_path, disk_pgm, noisy_pgm, capsys):
        argv = ["sweep", str(noisy_pgm), "--clean", str(disk_pgm), "--etas", "1,abc", "--ps", "1"]
        assert main(argv) == 2
        assert "invalid value for etas: 'abc'" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "lists, message",
        [
            (["--etas", "1,inf", "--ps", "1"], "eta must be finite, got inf"),
            (["--etas", "1", "--ps", "1,3"], "p must lie in [1, 2], got 3.0"),
            (["--etas", "1", "--ps", "1", "--n0", "-1"], "n0 must be non-negative, got -1"),
            (["--etas", "1,2", "--ps", "1", "--n0", "47"],
             "n0 = 47 leaves the band empty: the largest index sum of a 24 x 24 image is 46"),
        ],
    )
    def test_invalid_cell_exits_2_before_writing(self, tmp_path, disk_pgm, noisy_pgm, capsys, lists, message):
        out = tmp_path / "s"
        argv = ["sweep", str(noisy_pgm), "--clean", str(disk_pgm), "--out", str(out), "--max-steps", "3"] + lists
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", f"error: {message}\n")
        assert not out.exists()

    @pytest.mark.parametrize("flag", [["--eta", "3"], ["--p", "1.5"]])
    def test_single_p_or_eta_flag_exits_2(self, tmp_path, disk_pgm, noisy_pgm, capsys, flag):
        out = tmp_path / "s"
        argv = ["sweep", str(noisy_pgm), "--clean", str(disk_pgm), "--etas", "1", "--ps", "1", "--out", str(out)]
        assert main(argv + flag) == 2
        assert f"unrecognized arguments: {' '.join(flag)}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("lists", [["--etas", ",", "--ps", "1"], ["--etas", "1", "--ps", ","]])
    def test_empty_list_exits_2(self, tmp_path, disk_pgm, noisy_pgm, capsys, lists):
        out = tmp_path / "s"
        argv = ["sweep", str(noisy_pgm), "--clean", str(disk_pgm), "--out", str(out)] + lists
        assert main(argv) == 2
        assert capsys.readouterr().err == "error: eta and p lists must be non-empty\n"
        assert not out.exists()


SWEEP_RULES = {
    "rde": (["--stop", "rde", "--tol", "1e-2"], svddf.RdeStop(tolerance=1e-2)),
    "discrepancy": (["--stop", "discrepancy", "--delta", "0.2"], svddf.DiscrepancyStop(delta=0.2)),
    "a-priori": (
        ["--stop", "a-priori", "--c1", "5", "--delta", "0.3"],
        svddf.AprioriStop(c1=5.0, c2=1.0, gamma=1.0, delta=0.3),
    ),
    "none": (["--stop", "none"], svddf.MaxStepsOnly()),
}
SWEEP_METHODS = {"svddf": (svddf.run_svddf, 0.15), "first-order": (svddf.run_first_order, 0.05)}


def run_sweep(tmp_path, noisy, clean, ps, etas, flags, capsys):
    """Sweep table and printed step counts, each keyed by (p, eta)."""
    out = tmp_path / "sweep"
    argv = ["sweep", str(noisy), "--clean", str(clean), "--out", str(out)]
    argv += ["--ps", ",".join(map(str, ps)), "--etas", ",".join(map(str, etas))] + flags
    assert main(argv) == 0
    rows = (out / "sweep.csv").read_text().splitlines()[1:]
    table = {(p, eta): cell for p, row in zip(ps, rows) for eta, cell in zip(etas, row.split(",")[1:])}
    lines = capsys.readouterr().out.splitlines()[:-1]
    steps = {(p, eta): int(line.split("(")[1].split()[0]) for (p, eta), line in zip(table, lines)}
    return table, steps


class TestSweepCells:
    @pytest.mark.parametrize("method", SWEEP_METHODS)
    @pytest.mark.parametrize("stop", SWEEP_RULES)
    def test_cells_equal_library_runs_with_full_log(self, tmp_path, disk_pgm, noisy_pgm, capsys, stop, method):
        flags, rule = SWEEP_RULES[stop]
        runner, dt = SWEEP_METHODS[method]
        ps, etas = (1.0, 1.5, 2.0), (0.001, 2.0)
        table, steps = run_sweep(
            tmp_path, noisy_pgm, disk_pgm, ps, etas,
            flags + ["--method", method, "--dt", str(dt), "--max-steps", "60"], capsys,
        )
        noisy, clean = read_pgm(noisy_pgm), read_pgm(disk_pgm)
        for p, eta in table:
            cfg = svddf.SolverConfig(exponent_p=p, eta=eta, dt_rule="fixed", dt_fixed=dt,
                                     max_steps=60, stopping=rule)
            out, log = runner(noisy, cfg)
            assert len(log) == log.final_step()
            assert table[p, eta] == f"{svddf.ssim(out, clean):.17g}"
            assert steps[p, eta] == log.final_step()

    def test_cells_stopping_at_different_steps(self, tmp_path, disk64_pgms, capsys):
        # under rde with a 300-step budget the p = 1.5, eta = 0.001 cell stops early
        paths = disk64_pgms
        flags = ["--stop", "rde", "--dt", "0.15", "--max-steps", "300"]
        table, steps = run_sweep(tmp_path, paths[1], paths[0], (1.5,), (0.001, 1.0), flags, capsys)
        assert steps == {(1.5, 0.001): 57, (1.5, 1.0): 300}
        for (p, eta), cell in table.items():
            cfg = svddf.SolverConfig(exponent_p=p, eta=eta, dt_rule="fixed", dt_fixed=0.15,
                                     max_steps=300, stopping=svddf.RdeStop(tolerance=1e-4))
            out, log = svddf.run_svddf(read_pgm(paths[1]), cfg)
            assert log.final_step() == steps[p, eta]
            assert cell == f"{svddf.ssim(out, read_pgm(paths[0])):.17g}"

    @pytest.mark.parametrize("stop", SWEEP_RULES)
    def test_sweep_evaluates_only_the_stopping_quantity(
        self, tmp_path, disk_pgm, noisy_pgm, capsys, monkeypatch, stop
    ):
        calls = dict.fromkeys(("energies", "high_freq_energy", "discrepancy", "apply"), 0)
        for name in calls:
            original = getattr(svddf.flow, name)

            def counted(*args, _name=name, _original=original, **kwargs):
                calls[_name] += 1
                return _original(*args, **kwargs)

            monkeypatch.setattr(svddf.flow, name, counted)
        flags = SWEEP_RULES[stop][0] + ["--dt", "0.15", "--max-steps", "30"]
        _, steps = run_sweep(tmp_path, noisy_pgm, disk_pgm, (1.0, 2.0), (0.001, 2.0), flags, capsys)
        total = sum(steps.values())
        expected = {
            "rde": {"high_freq_energy": total + len(steps)},  # once per step plus once at start
            "discrepancy": {"discrepancy": total},
        }.get(stop, {}) | {"apply": total + len(steps)}  # one stencil product per step, one per startup state
        assert calls == {name: expected.get(name, 0) for name in calls}

        # denoise keeps every trajectory column
        calls.update(dict.fromkeys(calls, 0))
        out = tmp_path / "denoise"
        assert main(["denoise", str(noisy_pgm), "--out", str(out)] + flags) == 0
        n = len((out / "disk_noisy_trajectory.csv").read_text().splitlines()) - 1
        # the logged potential reads the step's stored product: no extra apply
        assert calls == {"energies": n, "high_freq_energy": n + 1, "discrepancy": n, "apply": n + 1}


class TestMetrics:
    def test_metrics_verb(self, tmp_path, disk_pgm, noisy_pgm, capsys):
        rc = main(
            [
                "metrics",
                "--clean",
                str(disk_pgm),
                "--noisy",
                str(noisy_pgm),
                "--denoised",
                str(disk_pgm),
                "--out",
                str(tmp_path / "m"),
            ]
        )
        assert rc == 0
        printed = capsys.readouterr().out.splitlines()
        assert printed[0] == "image_id,p,eta,steps,ssim_noisy,ssim_denoised,rel_err"
        fields = printed[1].split(",")
        assert float(fields[5]) == pytest.approx(1.0, abs=1e-12)
        assert (tmp_path / "m" / "metrics.csv").exists()

    def test_usage_error_exit_code(self):
        assert main(["metrics", "--clean", "x.pgm"]) == 2


def test_abbreviated_flag_exits_2(tmp_path, disk_pgm, noisy_pgm, capsys):
    # no verb reads an abbreviation as the flag it abbreviates
    cases = [
        (["add-noise", str(disk_pgm), "--del", "0.3"], "unrecognized arguments: --del 0.3"),
        (["denoise", str(noisy_pgm), "--stop", "none", "--max", "5"], "unrecognized arguments: --max 5"),
        (["metrics", "--clean", str(disk_pgm), "--noisy", str(noisy_pgm), "--den", str(disk_pgm)],
         "the following arguments are required: --denoised"),
    ]
    for i, (argv, message) in enumerate(cases):
        out = tmp_path / f"bad{i}"
        assert main(argv + ["--out", str(out)]) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()
