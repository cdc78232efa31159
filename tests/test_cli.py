import types

import numpy as np
import pytest

import svddf
from svddf import ImageGrid, read_pgm, synth_image, write_pgm
from svddf.cli import main

STABILITY_NOTE = "see README 'Stability of the spectral step rule'"


@pytest.fixture
def disk_pgm(tmp_path):
    base = synth_image("disk", 24, 24)
    remapped = ImageGrid(0.25 + 0.5 * base.pixels)
    path = tmp_path / "disk.pgm"
    write_pgm(remapped, path)
    return path


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

    @pytest.mark.parametrize(
        "conf_line, flags", [("n0=0", ["--n0", "0"]), ("rde-literal-n0=true", ["--rde-literal-n0"])]
    )
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

    def test_config_file_unknown_key_exits_2(self, tmp_path, noisy_pgm, capsys):
        conf = tmp_path / "run.conf"
        conf.write_text("eta=2\netaa=1\n")
        out = tmp_path / "bad"
        assert main(["denoise", str(noisy_pgm), "--config", str(conf), "--out", str(out)]) == 2
        assert f"{conf}:2: unknown key 'etaa'" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "conf_text, flags, message",
        [
            ("", ["--dt", "abc"], "invalid value for dt: 'abc'"),
            ("n0=abc\n", [], "invalid value for n0: 'abc'"),
            ("rde-literal-n0=maybe\n", [], "invalid value for rde_literal_n0: 'maybe'"),
            ("stop=bogus\n", [], "invalid value for stop: 'bogus'"),
            ("method=bogus\n", [], "invalid value for method: 'bogus'"),
        ],
        ids=["flag-dt", "config-n0", "config-bool", "config-stop", "config-method"],
    )
    def test_malformed_value_exits_2(self, tmp_path, noisy_pgm, capsys, conf_text, flags, message):
        conf = tmp_path / "run.conf"
        conf.write_text(conf_text)
        out = tmp_path / "bad"
        argv = ["denoise", str(noisy_pgm), "--config", str(conf), "--out", str(out)] + flags
        assert main(argv) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("value", ["-0.1", "0", "nan"])
    def test_non_positive_dt_max_exits_2(self, tmp_path, noisy_pgm, capsys, value):
        out = tmp_path / "bad"
        argv = ["denoise", str(noisy_pgm), "--dt", "auto", "--dt-max", value, "--out", str(out)]
        assert main(argv) == 2
        assert "dt_max must be positive" in capsys.readouterr().err
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
        import math

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

    def test_auto_dt_stability_warning_per_cell(self, tmp_path, disk_pgm, noisy_pgm, capsys):
        argv = ["sweep", str(noisy_pgm), "--clean", str(disk_pgm), "--etas", "1,3", "--ps", "1,2"]
        argv += ["--dt", "auto", "--stop", "none", "--max-steps", "3", "--out", str(tmp_path / "s")]
        assert main(argv) == 0
        captured = capsys.readouterr()
        # one line for each eta = 3 cell (safety * eta = 2.7), none for eta = 1
        assert captured.err.count(STABILITY_NOTE) == 2
        assert len(captured.out.splitlines()) == 5
        assert STABILITY_NOTE not in captured.out

    def test_malformed_list_value_exits_2(self, tmp_path, disk_pgm, noisy_pgm, capsys):
        argv = ["sweep", str(noisy_pgm), "--clean", str(disk_pgm), "--etas", "1,abc", "--ps", "1"]
        assert main(argv) == 2
        assert "invalid value for etas: 'abc'" in capsys.readouterr().err


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
