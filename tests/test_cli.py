import dataclasses
import os
import shutil

import numpy as np
import pytest

from mlio.cli import load_pipeline_config, main
from mlio.sim import loop_scenario, save_scenario


def cli(*argv):
    return main(list(argv))


@pytest.fixture(scope="module")
def scenario_yaml(tmp_path_factory):
    """A short straight drive, saved as a scenario file for `simulate`."""
    scenario = dataclasses.replace(
        loop_scenario(),
        segments=((1.0, np.zeros(6)), (5.0, np.array([0, 0, 0, 8.0, 0, 0]))),
    )
    path = tmp_path_factory.mktemp("scenario") / "straight.yaml"
    save_scenario(path, scenario)
    return str(path)


@pytest.fixture(scope="module")
def dataset_dir(scenario_yaml, tmp_path_factory):
    out = str(tmp_path_factory.mktemp("data") / "straight")
    assert cli("simulate", "--scenario", scenario_yaml, "--out", out) == 0
    return out


@pytest.fixture(scope="module")
def run_dir(dataset_dir, tmp_path_factory):
    out = str(tmp_path_factory.mktemp("runs") / "a")
    code = cli("run", "--dataset", dataset_dir, "--sensors", "L2I2", "--out", out)
    assert code == 0
    return out


class TestSimulate:
    def test_writes_manifest(self, dataset_dir):
        import os

        entries = set(os.listdir(dataset_dir))
        assert {"gnss.csv", "gt.tum", "scenario.yaml", "scans"} <= entries
        assert {f"imu_{p}.csv" for p in ("F_L", "F_R", "R_L", "R_R")} <= entries

    def test_deterministic_given_seed(self, scenario_yaml, tmp_path):
        a, b = str(tmp_path / "a"), str(tmp_path / "b")
        assert cli("simulate", "--scenario", scenario_yaml, "--out", a,
                   "--seed", "7") == 0
        assert cli("simulate", "--scenario", scenario_yaml, "--out", b,
                   "--seed", "7") == 0
        for name in ("imu_F_L.csv", "gnss.csv", "gt.tum"):
            with open(f"{a}/{name}", "rb") as fa, open(f"{b}/{name}", "rb") as fb:
                assert fa.read() == fb.read()

    def test_unknown_scenario_is_data_error(self, tmp_path):
        assert cli("simulate", "--scenario", "no-such", "--out",
                   str(tmp_path / "x")) == 2


class TestRun:
    def test_outputs(self, run_dir):
        import os

        assert {"est.tum", "fused_imu.csv", "counters.txt"} <= set(
            os.listdir(run_dir)
        )
        counters = open(f"{run_dir}/counters.txt").read()
        assert "mask: L2I2" in counters

    def test_missing_dataset_is_data_error(self, tmp_path):
        assert cli("run", "--dataset", str(tmp_path / "nope"), "--out",
                   str(tmp_path / "out")) == 2

    def test_bad_mask_is_data_error(self, dataset_dir, tmp_path):
        assert cli("run", "--dataset", dataset_dir, "--sensors", "L9I9",
                   "--out", str(tmp_path / "out")) == 2

    def test_gnss_out_of_stamp_order_is_data_error(self, dataset_dir, tmp_path, capsys):
        data = tmp_path / "data"
        shutil.copytree(dataset_dir, data)
        lines = (data / "gnss.csv").read_text().splitlines(keepends=True)
        lines[1], lines[2] = lines[2], lines[1]
        (data / "gnss.csv").write_text("".join(lines))
        assert cli("run", "--dataset", str(data), "--sensors", "L2I2G1",
                   "--out", str(tmp_path / "out")) == 2
        assert "gnss.csv line 3: stamp" in capsys.readouterr().err

    def test_config_overrides(self, dataset_dir, tmp_path):
        config = tmp_path / "cfg.yaml"
        config.write_text("keyframe_interval_s: 1.0\n")
        out = str(tmp_path / "out")
        assert cli("run", "--dataset", dataset_dir, "--sensors", "L2I2",
                   "--out", out, "--config", str(config)) == 0
        # half the keyframe rate of the fixture run
        assert len(open(f"{out}/est.tum").readlines()) < 9

    def test_unknown_config_key_is_data_error(self, dataset_dir, tmp_path):
        config = tmp_path / "cfg.yaml"
        config.write_text("no_such_knob: 1\n")
        assert cli("run", "--dataset", dataset_dir, "--out",
                   str(tmp_path / "out"), "--config", str(config)) == 2

    @pytest.mark.parametrize("text, key", [
        ("icp: 5", "icp"),  # a value for a section
        ("sync: 7", "sync"),
        ("window: 2.7", "window"),  # a fraction for an int field
        ("icp: {max_iterations: 12.9}", "max_iterations"),
        ("window: [1, 2]", "window"),  # a list for a value
        ("keyframe_interval_s: {a: 1}", "keyframe_interval_s"),
        ("window: true", "window"),  # a boolean is not a number
        ("keyframe_interval_s: false", "keyframe_interval_s"),
        ("window: null", "window"),
    ])
    def test_config_value_that_does_not_fit_is_data_error(self, dataset_dir, tmp_path,
                                                          capsys, text, key):
        config = tmp_path / "cfg.yaml"
        config.write_text(text + "\n")
        assert cli("run", "--dataset", dataset_dir, "--out",
                   str(tmp_path / "out"), "--config", str(config)) == 2
        assert repr(key) in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_config_values_that_fit_load(self, tmp_path):
        config = tmp_path / "cfg.yaml"
        config.write_text("keyframe_interval_s: 1\nwindow: 12.0\n"
                          "icp: {max_iterations: 9, huber_delta: 1e-2}\n")
        loaded = load_pipeline_config(str(config))
        assert loaded.keyframe_interval_s == 1.0 and type(loaded.keyframe_interval_s) is float
        assert loaded.window == 12 and type(loaded.window) is int
        assert (loaded.icp.max_iterations, loaded.icp.huber_delta) == (9, 0.01)


class TestEval:
    def test_table_and_report(self, dataset_dir, run_dir, tmp_path, capsys):
        out = str(tmp_path / "eval")
        assert cli("eval", "--dataset", dataset_dir, "--est",
                   f"{run_dir}/est.tum", "--out", out) == 0
        table = capsys.readouterr().out
        assert "RPE trans" in table and "APE" in table
        report = open(f"{out}/report_a.txt").read()
        assert "rpe_trans_m:" in report and "ape:" in report
        pairs = open(f"{out}/rpe_pairs_a.csv").readlines()
        assert pairs[0].startswith("t_s,rpe_trans_m,rpe_rot_deg")

    def test_needs_exactly_one_gt_source(self, run_dir):
        est = f"{run_dir}/est.tum"
        assert cli("eval", "--est", est) == 1
        assert cli("eval", "--dataset", "d", "--gt", "g", "--est", est) == 1

    def test_shared_label_is_usage_error(self, dataset_dir, run_dir, tmp_path, capsys):
        """Two runs in one directory would print two rows with one label,
        and the second report and pair CSV would overwrite the first."""
        for name in ("a.tum", "b.tum"):
            shutil.copy(f"{run_dir}/est.tum", tmp_path / name)
        out = tmp_path / "eval"
        assert cli("eval", "--dataset", dataset_dir, "--est", str(tmp_path / "a.tum"),
                   str(tmp_path / "b.tum"), "--out", str(out)) == 1
        assert repr(tmp_path.name) in capsys.readouterr().err
        assert not out.exists()

    def test_rpe_distance_flag(self, dataset_dir, run_dir, capsys):
        assert cli("eval", "--dataset", dataset_dir, "--est",
                   f"{run_dir}/est.tum", "--rpe-distance", "5") == 0
        assert capsys.readouterr().out  # shorter window still associates

    @pytest.mark.parametrize("distance", ["0", "-5", "nan", "inf"])
    def test_rpe_distance_must_be_positive_and_finite(self, dataset_dir, run_dir,
                                                      tmp_path, capsys, distance):
        out = tmp_path / "eval"
        assert cli("eval", "--dataset", dataset_dir, "--est", f"{run_dir}/est.tum",
                   "--rpe-distance", distance, "--out", str(out)) == 1
        captured = capsys.readouterr()
        assert "--rpe-distance" in captured.err and not captured.out
        assert not out.exists()


class TestAllan:
    def test_reports_axis(self, dataset_dir, capsys):
        assert cli("allan", "--input", f"{dataset_dir}/imu_F_L.csv",
                   "--axis", "fz") == 0
        out = capsys.readouterr().out
        assert "fz: white-noise density" in out

    def test_writes_csv(self, dataset_dir, tmp_path):
        out = str(tmp_path / "allan")
        assert cli("allan", "--input", f"{dataset_dir}/imu_F_L.csv",
                   "--out", out) == 0
        rows = open(f"{out}/allan_wx.csv").readlines()
        assert rows[0].strip() == "tau_s,adev"
        assert len(rows) > 2

    def test_missing_input_is_data_error(self, tmp_path):
        assert cli("allan", "--input", str(tmp_path / "nope.csv")) == 2


class TestFuseImu:
    def test_writes_stream(self, dataset_dir, tmp_path):
        out = str(tmp_path / "fused.csv")
        assert cli("fuse-imu", "--dataset", dataset_dir, "--sensors", "I4",
                   "--out", out) == 0
        rows = np.loadtxt(out, delimiter=",", skiprows=1)
        assert rows.shape[1] == 10
        # static start: fused specific force holds gravity, rates are zero
        assert np.allclose(rows[0, 1:4], [0, 0, 9.81], atol=0.05)
        assert np.allclose(rows[0, 4:7], 0.0, atol=0.01)

    def test_bad_sensor_arg_is_usage_error(self, dataset_dir, tmp_path):
        assert cli("fuse-imu", "--dataset", dataset_dir, "--sensors", "X2",
                   "--out", str(tmp_path / "f.csv")) == 1


class TestWithoutGroundTruth:
    """A dataset directory without gt.tum still replays: `run` and
    `fuse-imu` never read it, and `eval` still needs it."""

    @pytest.fixture(scope="class")
    def no_gt_dir(self, dataset_dir, tmp_path_factory):
        out = tmp_path_factory.mktemp("no_gt") / "straight"
        shutil.copytree(dataset_dir, out)
        os.remove(out / "gt.tum")
        return str(out)

    def test_run_matches_the_full_dataset(self, no_gt_dir, run_dir, tmp_path):
        out = str(tmp_path / "a")
        assert cli("run", "--dataset", no_gt_dir, "--sensors", "L2I2",
                   "--out", out) == 0
        for name in ("est.tum", "fused_imu.csv", "counters.txt"):
            with open(f"{out}/{name}", "rb") as fa, \
                    open(f"{run_dir}/{name}", "rb") as fb:
                assert fa.read() == fb.read(), name

    def test_fuse_imu_matches_the_full_dataset(self, no_gt_dir, dataset_dir,
                                               tmp_path):
        for d, name in ((no_gt_dir, "a.csv"), (dataset_dir, "b.csv")):
            assert cli("fuse-imu", "--dataset", d, "--sensors", "I4",
                       "--out", str(tmp_path / name)) == 0
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()

    def test_eval_reads_gt_from_the_dataset(self, no_gt_dir, dataset_dir,
                                            run_dir, capsys):
        est = f"{run_dir}/est.tum"
        assert cli("eval", "--dataset", dataset_dir, "--est", est) == 0
        by_dataset = capsys.readouterr().out
        assert cli("eval", "--gt", f"{dataset_dir}/gt.tum", "--est", est) == 0
        assert capsys.readouterr().out == by_dataset
        assert cli("eval", "--dataset", no_gt_dir, "--est", est) == 2


class TestUsage:
    def test_unknown_command(self):
        assert cli("frobnicate") == 1

    def test_missing_required_flag(self):
        assert cli("run", "--dataset", "d") == 1
