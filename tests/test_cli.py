import json
import subprocess
import sys

import pytest

from thermalnoon.cli import main
from thermalnoon.curves import default_grid
from thermalnoon.geometry import DetectorLayout, SourceArray
from thermalnoon.speckle import SpeckleConfig


def read_csv(path):
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    rows = [[float(v) for v in line.split(",")] for line in lines[1:]]
    return header, rows


class TestAnalyticCommand:
    def test_spread_curve_files(self, tmp_path):
        out = tmp_path / "spread.csv"
        assert main(["analytic", "--setup", "1", "--order", "4", "--out", str(out)]) == 0
        header, rows = read_csv(out)
        assert header == ["delta1", "G", "g_norm"]
        assert len(rows) == 181
        assert rows[0][0] == 0.0
        assert rows[0][1] == pytest.approx(64.0)
        assert rows[0][2] == pytest.approx(1.0)
        sidecar = json.loads((tmp_path / "spread.json").read_text())
        assert sidecar["c1"] == 56
        assert sidecar["c2"] == 8
        assert sidecar["visibility"] == pytest.approx(1 / 7)
        assert sidecar["frequency"] == 2
        assert sidecar["parity_sign"] == 1

    def test_colocated_curve_files(self, tmp_path):
        out = tmp_path / "colo.csv"
        code = main(
            ["analytic", "--setup", "2", "--m1", "3", "--m2", "2", "--out", str(out)]
        )
        assert code == 0
        _, rows = read_csv(out)
        assert rows[0][1] == pytest.approx(768.0)  # 912 - 144 at delta1 = 0
        sidecar = json.loads((tmp_path / "colo.json").read_text())
        assert sidecar["c1"] == 912
        assert sidecar["c2"] == 144
        assert sidecar["parity_sign"] == -1
        assert sidecar["frequency"] == 2

    def test_flat_configuration_reports_zero_visibility(self, tmp_path):
        out = tmp_path / "flat.csv"
        main(["analytic", "--setup", "2", "--m1", "1", "--m2", "2", "--out", str(out)])
        sidecar = json.loads((tmp_path / "flat.json").read_text())
        assert sidecar["visibility"] == 0.0

    def test_default_output_name(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert main(["analytic", "--setup", "1", "--order", "4"]) == 0
        assert (tmp_path / "analytic-spread-M4.csv").exists()
        assert (tmp_path / "analytic-spread-M4.json").exists()

    def test_missing_order_is_an_error(self, tmp_path, capsys):
        assert main(["analytic", "--setup", "1"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_csv_floats_roundtrip_exactly(self, tmp_path):
        # repr() cells must parse back to the same doubles
        out = tmp_path / "exact.csv"
        main(["analytic", "--setup", "2", "--m1", "2", "--m2", "2", "--out", str(out)])
        _, rows = read_csv(out)
        from thermalnoon.analytic import setup2_g

        for delta1, g_value, _ in rows[:20]:
            assert g_value == setup2_g(2, 2, delta1)


class TestOracleCheckCommand:
    def test_passes_and_reports(self, tmp_path):
        out = tmp_path / "oracle.json"
        code = main(
            [
                "oracle-check",
                "--max-order",
                "4",
                "--samples",
                "5",
                "--random-configs",
                "10",
                "--seed",
                "1",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        report = json.loads(out.read_text())
        assert report["pass"] is True
        assert report["max_rel_gap"] <= 1e-9
        assert report["spread_closed_form"]
        assert report["colocated_closed_form"]
        assert report["pathsum_vs_permanent"]["configs"] == 10

    def test_order_cap_enforced(self, capsys):
        assert main(["oracle-check", "--max-order", "10", "--seed", "1"]) == 2
        assert "max-order 8" in capsys.readouterr().err

    def test_seed_is_required(self):
        with pytest.raises(SystemExit):
            main(["oracle-check"])


class TestSpeckleCommand:
    def run_speckle(self, out, workers="1", seed="3"):
        return main(
            [
                "speckle",
                "--m1",
                "2",
                "--m2",
                "2",
                "--frames",
                "20000",
                "--seed",
                seed,
                "--grid",
                "61",
                "--workers",
                workers,
                "--out",
                str(out),
            ]
        )

    def test_files_and_sidecar_keys(self, tmp_path):
        out = tmp_path / "run.csv"
        assert self.run_speckle(out) == 0
        header, rows = read_csv(out)
        assert header == ["delta1", "g_norm", "stderr"]
        assert len(rows) == 61
        assert max(row[1] for row in rows) == pytest.approx(1.0)
        assert all(row[2] > 0 for row in rows)
        sidecar = json.loads((tmp_path / "run.json").read_text())
        assert set(sidecar) == {
            "A",
            "B",
            "visibility",
            "stderr_visibility",
            "stderr_amplitude",
            "frequency",
            "dominant_frequency",
            "parity_ok",
            "seed",
            "frames",
        }
        assert sidecar["frequency"] == 2
        assert sidecar["seed"] == 3
        assert sidecar["frames"] == 20000

    def test_worker_count_is_invisible_in_output(self, tmp_path):
        serial = tmp_path / "serial.csv"
        threaded = tmp_path / "threaded.csv"
        assert self.run_speckle(serial, workers="1") == 0
        assert self.run_speckle(threaded, workers="4") == 0
        assert serial.read_bytes() == threaded.read_bytes()

    def test_reruns_are_byte_identical(self, tmp_path):
        first = tmp_path / "first.csv"
        second = tmp_path / "second.csv"
        assert self.run_speckle(first) == 0
        assert self.run_speckle(second) == 0
        assert first.read_bytes() == second.read_bytes()

    def test_config_file_matches_flags(self, tmp_path):
        config = SpeckleConfig(
            sources=SourceArray.equidistant(2, 1.0),
            layout=DetectorLayout.colocated(2, 2),
            frames=20000,
            seed=3,
            grid=default_grid(61),
        )
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(config.to_dict()))
        from_flags = tmp_path / "flags.csv"
        from_config = tmp_path / "config.csv"
        assert self.run_speckle(from_flags) == 0
        code = main(
            ["speckle", "--config", str(config_path), "--out", str(from_config)]
        )
        assert code == 0
        assert from_flags.read_bytes() == from_config.read_bytes()

    def test_missing_flags_reported(self, capsys):
        assert main(["speckle", "--m1", "2"]) == 2
        err = capsys.readouterr().err
        assert "--m2" in err and "--frames" in err and "--seed" in err

    def test_spread_layout_needs_equal_halves(self, tmp_path, capsys):
        code = main(
            [
                "speckle",
                "--layout",
                "spread",
                "--m1",
                "2",
                "--m2",
                "3",
                "--frames",
                "1000",
                "--seed",
                "1",
                "--out",
                str(tmp_path / "x.csv"),
            ]
        )
        assert code == 2
        assert "spread" in capsys.readouterr().err


class TestFockCommand:
    def test_report_passes(self, tmp_path):
        out = tmp_path / "fock.json"
        code = main(
            [
                "fock",
                "--nbar",
                "0.5",
                "--m1",
                "1",
                "--m2",
                "1",
                "--cutoff",
                "30",
                "--grid",
                "5",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        report = json.loads(out.read_text())
        assert report["pass"] is True
        assert report["support_ok"] is True
        assert report["max_relative_gap"] <= 1e-6
        assert len(report["relative_gaps"]) == 5
        assert report["projection_norm"] == pytest.approx(1.0, rel=1e-6)

    @pytest.mark.parametrize("nbar", ["3", "5", "10"])
    def test_bright_sources_pass_at_default_cutoff(self, tmp_path, nbar):
        out = tmp_path / "fock.json"
        argv = ["fock", "--nbar", nbar, "--m1", "3", "--m2", "3", "--grid", "3"]
        assert main(argv + ["--out", str(out)]) == 0
        report = json.loads(out.read_text())
        assert report["pass"] is True
        assert report["trunc_tail"] <= 1e-6


class TestThresholdsCommand:
    def test_table(self, capsys):
        assert main(["thresholds"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["thresholds"] == {"2": 3, "3": 5, "4": 6, "5": 7}
        for row in payload["detail"]:
            assert row["colocated_visibility"] > row["spread_visibility"]

    def test_rejects_small_cap(self, capsys):
        assert main(["thresholds", "--max-m2", "1"]) == 2


class TestEntryPoint:
    def test_no_arguments_prints_help(self, capsys):
        assert main([]) == 2
        assert "usage" in capsys.readouterr().out.lower()

    def test_module_invocation(self):
        result = subprocess.run(
            [sys.executable, "-m", "thermalnoon", "thresholds"],
            capture_output=True,
            text=True,
        )
        assert result.returncode == 0
        assert '"thresholds"' in result.stdout
