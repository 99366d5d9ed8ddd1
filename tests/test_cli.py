import json
import math
import subprocess
import sys
from pathlib import Path

import pytest

from thermalnoon import cli, fockstate, pathsum
from thermalnoon.analytic import closed_form
from thermalnoon.cli import main
from thermalnoon.curves import default_grid
from thermalnoon.geometry import DetectorLayout, SourceArray
from thermalnoon.speckle import SpeckleConfig

DATA = Path(__file__).parent / "data"


def read_csv(path):
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    rows = [[float(v) for v in line.split(",")] for line in lines[1:]]
    return header, rows


class TestAnalyticCommand:
    def test_spread_curve_files(self, tmp_path):
        out = tmp_path / "spread.csv"
        argv = ["analytic", "--layout", "spread", "--m1", "2", "--m2", "2"]
        assert main(argv + ["--out", str(out)]) == 0
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
        code = main(["analytic", "--m1", "3", "--m2", "2", "--out", str(out)])
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
        main(["analytic", "--m1", "1", "--m2", "2", "--out", str(out)])
        sidecar = json.loads((tmp_path / "flat.json").read_text())
        assert sidecar["visibility"] == 0.0

    def test_default_output_name(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert main(["analytic", "--layout", "spread", "--m1", "2", "--m2", "2"]) == 0
        assert (tmp_path / "analytic-spread-M4.csv").exists()
        assert (tmp_path / "analytic-spread-M4.json").exists()
        assert main(["analytic", "--m1", "3", "--m2", "2"]) == 0
        assert (tmp_path / "analytic-colocated-m1_3-m2_2.csv").exists()
        assert (tmp_path / "analytic-colocated-m1_3-m2_2.json").exists()

    def test_missing_counts_are_named(self, capsys):
        assert main(["analytic", "--layout", "spread"]) == 2
        err = capsys.readouterr().err
        assert "--m1" in err and "--m2" in err

    def test_spread_needs_equal_halves(self, tmp_path, capsys):
        out = tmp_path / "unequal.csv"
        argv = ["analytic", "--layout", "spread", "--m1", "3", "--m2", "2"]
        assert main(argv + ["--out", str(out)]) == 2
        assert "requires --m1 == --m2" in capsys.readouterr().err
        assert not out.exists()

    def test_layout_without_closed_form_is_an_error(self, tmp_path, capsys):
        out = tmp_path / "none.csv"
        assert main(["analytic", "--m1", "2", "--m2", "0", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert DetectorLayout.colocated(2, 0).describe() in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "flags",
        [["--setup", "1", "--order", "4"], ["--order", "4"], ["--layout", "mmp-spread"]],
        ids=["setup", "order", "unknown-layout"],
    )
    def test_setup_flag_is_gone(self, capsys, flags):
        with pytest.raises(SystemExit) as usage:
            main(["analytic", "--m1", "2", "--m2", "2", *flags])
        assert usage.value.code == 2
        assert "usage" in capsys.readouterr().err

    def test_csv_floats_roundtrip_exactly(self, tmp_path):
        # repr() cells must parse back to the same doubles
        out = tmp_path / "exact.csv"
        main(["analytic", "--m1", "2", "--m2", "2", "--out", str(out)])
        _, rows = read_csv(out)
        form = closed_form(DetectorLayout.colocated(2, 2))
        for delta1, g_value, _ in rows[:20]:
            assert g_value == form.g(delta1)


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
        assert 0.0 < report["permanent_error_bound"] <= report["tolerance"]
        assert 0.0 < report["pathsum_error_bound"] <= report["tolerance"]

    def test_order_cap_enforced(self, monkeypatch, tmp_path, capsys):
        # no cap of its own: at --seed 1 the path sum's error bound refuses
        # spread(31), M = 62, and no layout after it is built, not even the
        # 19900 co-located ones of --max-order 200
        built = set()
        for name in ("spread", "colocated"):

            def recorded(*args, make=getattr(DetectorLayout, name), name=name):
                built.add((name, args))
                return make(*args)

            monkeypatch.setattr(DetectorLayout, name, staticmethod(recorded))
        argv = ["oracle-check", "--seed", "1", "--max-order"]
        for max_order in ("1048576", "200"):
            built.clear()
            assert main(argv + [max_order]) == 2
            err = capsys.readouterr().err
            assert "path-sum error bound" in err and "M = 62" in err
            assert built == {("spread", (m,)) for m in range(1, 32)}
        # the path sum's table cap is the other edge: two sources fill M + 1
        # splits, and the random K <= 3 configurations up to 7**2 = 49
        monkeypatch.setattr(pathsum, "PATHSUM_MAX_TABLE", 49)
        out = str(tmp_path / "oracle.json")
        assert main(argv + ["48", "--samples", "1", "--out", out]) == 0
        assert main(argv + ["49", "--samples", "1", "--out", out]) == 2
        assert "exceeds PATHSUM_MAX_TABLE = 49" in capsys.readouterr().err

    def test_seed_is_required(self):
        with pytest.raises(SystemExit):
            main(["oracle-check"])

    @pytest.mark.parametrize("value", ["0", "-3"])
    def test_samples_must_check_something(self, tmp_path, capsys, value):
        out = tmp_path / "oracle.json"
        argv = ["oracle-check", "--seed", "1", "--samples", value, "--out", str(out)]
        assert main(argv) == 2
        assert "--samples must be at least 1" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("value", ["0", "-3"])
    def test_random_configs_must_check_something(self, tmp_path, capsys, value):
        out = tmp_path / "oracle.json"
        argv = ["oracle-check", "--seed", "1", "--random-configs", value]
        assert main(argv + ["--out", str(out)]) == 2
        assert "--random-configs must be at least 1" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("value", ["0", "-3"])
    def test_max_order_must_check_something(self, tmp_path, capsys, value):
        out = tmp_path / "oracle.json"
        argv = ["oracle-check", "--seed", "1", "--max-order", value]
        assert main(argv + ["--out", str(out)]) == 2
        assert "--max-order must be at least 1" in capsys.readouterr().err
        assert not out.exists()


class TestSpeckleCommand:
    def run_speckle(self, out, workers="1", seed="3", extra=()):
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
                *extra,
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
        # the sidecar too: the fit's error bars see the same batch means
        assert (tmp_path / "serial.json").read_bytes() == (
            tmp_path / "threaded.json"
        ).read_bytes()

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
        from_config = tmp_path / "from-config.csv"
        assert self.run_speckle(from_flags) == 0
        code = main(
            ["speckle", "--config", str(config_path), "--out", str(from_config)]
        )
        assert code == 0
        assert from_flags.read_bytes() == from_config.read_bytes()

    def test_slit_ratio_flag_matches_config_field(self, tmp_path, capsys):
        config = SpeckleConfig(
            sources=SourceArray.equidistant(2, 1.0),
            layout=DetectorLayout.colocated(2, 2),
            frames=20000,
            seed=3,
            grid=default_grid(61),
            slit_ratio=0.2,
        )
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(config.to_dict()))
        from_flags = tmp_path / "flags.csv"
        from_config = tmp_path / "from-config.csv"
        assert self.run_speckle(from_flags, extra=("--slit-ratio", "0.2")) == 0
        code = main(
            ["speckle", "--config", str(config_path), "--out", str(from_config)]
        )
        assert code == 0
        assert from_flags.read_bytes() == from_config.read_bytes()
        # and the slit changes the curve: the flag is not ignored
        assert self.run_speckle(tmp_path / "point.csv") == 0
        assert (tmp_path / "point.csv").read_bytes() != from_flags.read_bytes()
        capsys.readouterr()
        whole = tmp_path / "whole.csv"
        assert self.run_speckle(whole, extra=("--slit-ratio", "1.0")) == 2
        assert "slit_ratio" in capsys.readouterr().err
        assert not whole.exists()

    def test_config_file_number_is_not_truncated(self, tmp_path, capsys):
        data = SpeckleConfig(
            sources=SourceArray(),
            layout=DetectorLayout.colocated(2, 2),
            frames=1000,
            seed=3,
        ).to_dict()
        data["frames"] = 1000.5
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(data))
        out = tmp_path / "x.csv"
        assert main(["speckle", "--config", str(config_path), "--out", str(out)]) == 2
        assert "frames" in capsys.readouterr().err
        assert not out.exists()

    def test_config_grid_holding_a_bool_is_refused(self, tmp_path, capsys):
        # JSON true was read as the phase 1.0
        data = SpeckleConfig(
            sources=SourceArray(),
            layout=DetectorLayout.colocated(2, 2),
            frames=1000,
            seed=3,
        ).to_dict()
        data["grid"] = [0.0, True, 6.0]
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(data))
        out = tmp_path / "x.csv"
        assert main(["speckle", "--config", str(config_path), "--out", str(out)]) == 2
        assert "grid" in capsys.readouterr().err
        assert not out.exists() and not out.with_suffix(".json").exists()

    def test_required_fields_alone_match_required_flags_alone(self, tmp_path):
        # an absent field and an absent flag both take SpeckleConfig's defaults
        data = SpeckleConfig(
            sources=SourceArray(),
            layout=DetectorLayout.colocated(3, 2),
            frames=4000,
            seed=5,
            grid=default_grid(7),
            slit_ratio=0.3,
            workers=2,
        ).to_dict()
        for name in ("grid", "slit_ratio", "workers"):
            del data[name]
        config_path = tmp_path / "required.json"
        config_path.write_text(json.dumps(data))
        from_config, from_flags = tmp_path / "config.csv", tmp_path / "flags.csv"
        run = ["speckle", "--config", str(config_path), "--out", str(from_config)]
        assert main(run) == 0
        flags = ["--m1", "3", "--m2", "2", "--frames", "4000", "--seed", "5"]
        assert main(["speckle", *flags, "--out", str(from_flags)]) == 0
        assert len(read_csv(from_flags)[1]) == 181
        assert from_config.read_bytes() == from_flags.read_bytes()
        sidecars = [path.with_suffix(".json") for path in (from_config, from_flags)]
        assert sidecars[0].read_bytes() == sidecars[1].read_bytes()

    def test_file_frames_are_checked_before_the_frames_flag(self, tmp_path, capsys):
        data = SpeckleConfig(
            sources=SourceArray(),
            layout=DetectorLayout.colocated(2, 2),
            frames=1000,
            seed=3,
        ).to_dict()
        data["frames"] = 1000.5
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(data))
        out = tmp_path / "x.csv"
        run = ["speckle", "--config", str(config_path), "--frames", "1000"]
        assert main(run + ["--out", str(out)]) == 2
        assert "frames must be an integer >= 1, got 1000.5" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "out",
        ["run.csv", "run.json", "sub/../run.csv", "link.csv", "hard.json"],
        ids=["sidecar", "csv", "dotted", "symlink", "hard-link"],
    )
    def test_config_file_is_never_written_over(
        self, tmp_path, capsys, monkeypatch, out
    ):
        # the CSV run.json, or run.csv's sidecar run.json, would be the config
        # file itself, by any path to it: refused before a frame is drawn
        config_path = tmp_path / "run.json"
        config_path.write_text(
            json.dumps(
                SpeckleConfig(
                    sources=SourceArray(),
                    layout=DetectorLayout.colocated(2, 2),
                    frames=1000,
                    seed=3,
                ).to_dict()
            )
        )
        before = config_path.read_bytes()
        (tmp_path / "sub").mkdir()
        (tmp_path / "link.json").symlink_to(config_path)
        (tmp_path / "hard.json").hardlink_to(config_path)

        def simulate(config):
            raise AssertionError("simulated before the paths were checked")

        monkeypatch.setattr(cli, "simulate_curve", simulate)
        run = ["speckle", "--config", str(config_path), "--out", str(tmp_path / out)]
        assert main(run) == 2
        err = capsys.readouterr().err
        assert "--config" in err and str(tmp_path / out)[:-4] in err
        assert config_path.read_bytes() == before
        assert not (tmp_path / "run.csv").exists()

    @pytest.mark.parametrize(
        "section,extra",
        [
            (None, {"slit_ration": 0.5, "worker": 4}),
            ("sources", {"count": 3}),
            ("layout", {"moving_kind": "mmp-spread"}),
        ],
        ids=["top", "sources", "layout"],
    )
    def test_config_file_names_every_unknown_key(
        self, tmp_path, capsys, section, extra
    ):
        data = SpeckleConfig(
            sources=SourceArray(),
            layout=DetectorLayout.colocated(2, 2),
            frames=1000,
            seed=3,
        ).to_dict()
        (data if section is None else data[section]).update(extra)
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(data))
        out = tmp_path / "x.csv"
        assert main(["speckle", "--config", str(config_path), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        where = "config" if section is None else f"config {section}"
        assert f"{where} has unknown fields: " + ", ".join(map(repr, extra)) in err
        assert not out.exists()

    def test_config_file_refuses_the_flags_it_would_drop(self, tmp_path, capsys):
        data = SpeckleConfig(
            sources=SourceArray(),
            layout=DetectorLayout.colocated(2, 2),
            frames=1000,
            seed=3,
        ).to_dict()
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(data))
        out = tmp_path / "x.csv"
        run = ["speckle", "--config", str(config_path), "--out", str(out)]
        dropped = [
            ("--nbar", "5"),
            ("--sources", "3"),
            ("--m1", "4"),
            ("--m2", "4"),
            ("--layout", "spread"),
            ("--slit-ratio", "0.5"),
            ("--grid", "11"),
        ]
        assert main(run + [v for pair in dropped for v in pair]) == 2
        err = capsys.readouterr().err
        assert all(flag in err for flag, _ in dropped)
        assert not out.exists()
        # the former default, given explicitly, is refused as well
        assert main(run + ["--layout", "colocated"]) == 2
        assert "--layout" in capsys.readouterr().err
        assert not out.exists()
        # how the run is drawn may still be overridden
        assert main(run + ["--frames", "500", "--seed", "4", "--workers", "1"]) == 0
        sidecar = json.loads(out.with_suffix(".json").read_text())
        assert (sidecar["frames"], sidecar["seed"]) == (500, 4)

    @pytest.mark.parametrize(
        "section,field,value",
        [
            (None, "frames", True),
            (None, "slit_ratio", "0.3"),
            ("sources", "nbar", ["1.0"]),
            ("layout", "moving_offsets", [True, False]),
        ],
        ids=[
            "frames-bool",
            "slit-string",
            "nbar-string",
            "moving-offsets-bool",
        ],
    )
    def test_config_file_rejects_bools_and_strings(
        self, tmp_path, capsys, section, field, value
    ):
        data = SpeckleConfig(
            sources=SourceArray(),
            layout=DetectorLayout.colocated(2, 2),
            frames=1000,
            seed=3,
        ).to_dict()
        (data if section is None else data[section])[field] = value
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(data))
        out = tmp_path / "x.csv"
        assert main(["speckle", "--config", str(config_path), "--out", str(out)]) == 2
        assert field in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "bad,token",
        [(math.nan, "NaN"), (math.inf, "Infinity"), (-math.inf, "-Infinity")],
    )
    def test_config_file_rejects_non_finite_grid(
        self, tmp_path, capsys, monkeypatch, bad, token
    ):
        # Python's json reads NaN and Infinity; the run must stop before a frame
        from thermalnoon import speckle

        def no_frames(*args):
            raise AssertionError("a frame was drawn")

        monkeypatch.setattr(speckle, "_run_unit", no_frames)
        data = SpeckleConfig(
            sources=SourceArray(),
            layout=DetectorLayout.colocated(2, 2),
            frames=1000,
            seed=3,
        ).to_dict()
        data["grid"][1] = bad
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(data))
        assert token in config_path.read_text()
        out = tmp_path / "x.csv"
        assert main(["speckle", "--config", str(config_path), "--out", str(out)]) == 2
        assert "grid" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "section,field",
        [
            (None, "frames"),
            (None, "seed"),
            (None, "layout"),
            (None, "sources"),
            ("layout", "fixed_phases"),
            ("sources", "nbar"),
            ("layout", "moving_offsets"),
        ],
    )
    def test_config_file_names_a_missing_field(
        self, tmp_path, capsys, section, field
    ):
        data = SpeckleConfig(
            sources=SourceArray(),
            layout=DetectorLayout.colocated(2, 2),
            frames=1000,
            seed=3,
        ).to_dict()
        del (data if section is None else data[section])[field]
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(data))
        out = tmp_path / "x.csv"
        assert main(["speckle", "--config", str(config_path), "--out", str(out)]) == 2
        assert repr(field) in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "flags,parity_ok",
        [
            (["--layout", "spread", "--m1", "2", "--m2", "2"], True),
            (["--m1", "2", "--m2", "2"], True),
            (["--m1", "3", "--m2", "3", "--nbar", "0.5"], True),
            (["--m1", "2", "--m2", "2", "--sources", "3"], None),
            (["--m1", "1", "--m2", "2"], None),
            (["--m1", "2", "--m2", "2", "--fit-frequency", "1"], None),
        ],
        ids=["spread", "colocated", "colocated-odd", "three-sources", "flat", "off-m2"],
    )
    def test_parity_follows_closed_form_sign(self, tmp_path, flags, parity_ok):
        out = tmp_path / "run.csv"
        argv = ["speckle", "--frames", "200000", "--seed", "3", "--grid", "61"]
        assert main(argv + flags + ["--out", str(out)]) == 0
        sidecar = json.loads((tmp_path / "run.json").read_text())
        assert sidecar["parity_ok"] is parity_ok

    def test_missing_flags_reported(self, capsys):
        assert main(["speckle", "--m1", "2"]) == 2
        err = capsys.readouterr().err
        assert "--m2" in err and "--frames" in err and "--seed" in err

    def test_older_config_file_is_refused(self, tmp_path, capsys):
        # written by SpeckleConfig.to_dict() before layouts carried offsets
        legacy = DATA / "legacy-spread-run.json"
        layout = json.loads(legacy.read_text())["layout"]
        assert layout["moving_kind"] == "mmp-spread" and "moving_offsets" not in layout
        out = tmp_path / "config.csv"
        assert main(["speckle", "--config", str(legacy), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "moving_offsets" in err and "moving_count" not in err
        assert not out.exists()

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

    @pytest.mark.parametrize(
        "flag,value,message",
        [
            ("--cutoff", "0", "cutoff must be an integer >= 1"),
            ("--grid", "0", "--grid"),
        ],
    )
    def test_rejects_nonpositive_flags(self, capsys, flag, value, message):
        assert main(["fock", flag, value]) == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("nbar", ["-1", "inf", "nan"])
    def test_rejects_negative_or_non_finite_nbar(self, tmp_path, capsys, nbar):
        out = tmp_path / "fock.json"
        assert main(["fock", "--nbar", nbar, "--out", str(out)]) == 2
        assert "nbar must be nonnegative and finite" in capsys.readouterr().err
        assert not out.exists()

    def test_nbar_past_the_cutoff_cap_is_refused(self, tmp_path, capsys):
        # 1e308 / (1 + 1e308) rounds to 1: no cutoff holds the thermal tail
        out = tmp_path / "fock.json"
        assert main(["fock", "--nbar", "1e308", "--out", str(out)]) == 2
        assert "FOCK_MAX_CUTOFF" in capsys.readouterr().err
        assert not out.exists()

    def test_cutoff_past_the_cap_is_refused(self, tmp_path, capsys):
        out = tmp_path / "fock.json"
        assert main(["fock", "--cutoff", "1001", "--out", str(out)]) == 2
        assert "FOCK_MAX_CUTOFF" in capsys.readouterr().err
        assert not out.exists()

    def test_cutoff_at_the_cap_runs(self, tmp_path):
        out = tmp_path / "fock.json"
        assert main(["fock", "--cutoff", "1000", "--grid", "1", "--out", str(out)]) == 0
        assert json.loads(out.read_text())["cutoff"] == 1000

    @pytest.mark.parametrize("grid", [1, 3, 9])
    def test_one_state_and_one_projection_per_run(self, monkeypatch, tmp_path, grid):
        # every thermalnoon module holding either function counts its calls,
        # so the CLI cannot bypass the count through its own reference
        counts = {"thermal_two_mode": 0, "project_magic": 0}
        for name in counts:
            original = getattr(fockstate, name)

            def counted(*args, _name=name, _original=original, **kwargs):
                counts[_name] += 1
                return _original(*args, **kwargs)

            for module_name, module in list(sys.modules.items()):
                if module_name.split(".")[0] == "thermalnoon":
                    if getattr(module, name, None) is original:
                        monkeypatch.setattr(module, name, counted)
        out = tmp_path / "fock.json"
        assert main(["fock", "--grid", str(grid), "--out", str(out)]) == 0
        assert counts == {"thermal_two_mode": 1, "project_magic": 1}
        assert len(json.loads(out.read_text())["relative_gaps"]) == grid

    @pytest.mark.parametrize("grid", [1, 3, 9])
    def test_one_moment_table_per_state_and_side(self, monkeypatch, tmp_path, grid):
        # rho for lhs and the projected state for rhs, each read once whatever
        # the grid length; the norm is the projected state's trace, no table
        tables = []
        moments = fockstate._moments

        def counted(bands, exponents):
            tables.append((sorted(bands), list(exponents)))
            return moments(bands, exponents)

        monkeypatch.setattr(fockstate, "_moments", counted)
        out = tmp_path / "fock.json"
        argv = ["fock", "--m1", "3", "--m2", "2", "--grid", str(grid)]
        assert main([*argv, "--out", str(out)]) == 0
        assert tables == [
            ([(0, 0)], [(5 - p, p) for p in range(6)]),
            ([(-2, 2), (0, 0), (2, -2)], [(3 - p, p) for p in range(4)]),
        ]
        assert len(json.loads(out.read_text())["relative_gaps"]) == grid

    @pytest.mark.parametrize(
        "argv,golden",
        [
            ([], "fock-default.json"),
            (
                ["--nbar", "2", "--m1", "3", "--m2", "3", "--grid", "3"],
                "fock-nbar_2-m1_3-m2_3-grid_3.json",
            ),
        ],
    )
    def test_matches_golden_file(self, tmp_path, argv, golden):
        # keys, counts, flags and offsets exactly; floats to rounding, since
        # other platforms and numpy versions may round the sums differently
        out = tmp_path / "fock.json"
        assert main(["fock", *argv, "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        expected = json.loads((DATA / golden).read_text())
        assert report.keys() == expected.keys()
        for key, want in expected.items():
            got = report[key]
            if key in ("relative_gaps", "max_relative_gap"):
                assert got == pytest.approx(want, rel=0, abs=1e-13), key
            elif isinstance(want, float) or key == "grid":
                assert got == pytest.approx(want, rel=1e-12, abs=0), key
            else:
                assert got == want and type(got) is type(want), key

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


class TestGoldenOutputs:
    """Exact outputs, byte for byte against files an earlier version wrote.

    They hold only integers and correctly rounded ratios of integers, so their
    bytes do not depend on the platform.
    """

    @pytest.mark.parametrize(
        "argv,golden",
        [
            (["thresholds", "--max-m2", "5"], "thresholds-max-m2-5.json"),
            (
                ["analytic", "--layout", "spread", "--m1", "3", "--m2", "3"],
                "analytic-spread-M6.json",
            ),
            (["analytic", "--m1", "3", "--m2", "2"], "analytic-colocated-m1_3-m2_2.json"),
        ],
    )
    def test_matches_golden_file(self, tmp_path, argv, golden):
        # thresholds writes the JSON itself, analytic as the sidecar of its CSV
        out = tmp_path / ("out.json" if argv[0] == "thresholds" else "out.csv")
        assert main(argv + ["--out", str(out)]) == 0
        assert (tmp_path / "out.json").read_bytes() == (DATA / golden).read_bytes()


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

    def test_repeated_calls_match_fresh_processes(self, capsys):
        # main reuses one parser: a usage error in between leaves no trace in it
        fock = ["fock", "--m1", "1", "--m2", "1", "--grid", "3"]
        for argv in (fock, ["fock", "--grid", "three"], fock):
            fresh = subprocess.run(
                [sys.executable, "-m", "thermalnoon", *argv],
                capture_output=True,
                text=True,
            )
            try:
                code = main(argv)
            except SystemExit as exc:  # argparse exits 2 on a usage error
                code = exc.code
            out = capsys.readouterr()
            assert (code, out.out, out.err) == (
                fresh.returncode,
                fresh.stdout,
                fresh.stderr,
            )
