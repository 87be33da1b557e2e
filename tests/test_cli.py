import gzip
import json
import os
import struct
import subprocess
import sys

import numpy as np
import pytest
from click.testing import CliRunner

from uqseg.cli import main
from uqseg.ensemble import PredictionPair, ensemble_with_flips
from uqseg.nifti import read_nifti, write_nifti
from uqseg.tables import read_case_table, read_predictions_table, read_survival_table
from uqseg.uncertainty import certainty_from_q
from uqseg.volumes import Axis, Volume3D


@pytest.fixture
def runner():
    return CliRunner()


def invoke(runner, args, expect=0):
    result = runner.invoke(main, args, catch_exceptions=False)
    assert result.exit_code == expect, f"exit {result.exit_code}: {result.output}\n{result.stderr}"
    return result


def run_pipeline(runner, root, seed=3, count=2, jobs=1):
    """phantom -> refine -> uncertainty -> evaluate, returning the results CSV path."""
    cases_dir = root / "cases"
    pred_dir = root / "pred"
    cert_dir = root / "cert"
    invoke(runner, ["phantom", "--preset", "hgg-like", "--seed", str(seed),
                    "--count", str(count), "--out", str(cases_dir)])
    pred_dir.mkdir()
    cert_dir.mkdir()
    for i in range(count):
        case = f"phantom-{seed + i:04d}"
        invoke(runner, [
            "refine",
            "--prob-wt", str(cases_dir / f"{case}_prob_wt.nii.gz"),
            "--prob-tc", str(cases_dir / f"{case}_prob_tc.nii.gz"),
            "--prob-et", str(cases_dir / f"{case}_prob_et.nii.gz"),
            "--out-labels", str(pred_dir / f"{case}.nii.gz"),
            "--out-report", str(root / f"{case}_report.csv"),
        ])
        for region, challenge in (("wt", "whole"), ("tc", "core"), ("et", "enhance")):
            invoke(runner, [
                "uncertainty", "--formula", "flip",
                "--q", str(cases_dir / f"{case}_q_{region}.nii.gz"),
                "--out", str(cert_dir / f"{case}_unc_{challenge}.nii.gz"),
            ])
    out_csv = root / "results.csv"
    invoke(runner, ["evaluate", "--pred-dir", str(pred_dir), "--gt-dir", str(cases_dir / "gt"),
                    "--cert-dir", str(cert_dir), "--out-csv", str(out_csv),
                    "--jobs", str(jobs)])
    return out_csv


class TestStandardize:
    def test_single_file(self, runner, tmp_path):
        src = tmp_path / "in.nii.gz"
        data = np.zeros((4, 4, 4))
        data[1:3, 1:3, 1:3] = [[[1, 2], [3, 4]], [[5, 6], [7, 8]]]
        write_nifti(Volume3D(data), src)
        dst = tmp_path / "out.nii.gz"
        invoke(runner, ["standardize", "--in", str(src), "--out", str(dst)])
        out, _ = read_nifti(dst)
        values = out.data[data != 0]
        assert abs(values.mean()) < 1e-6
        assert abs(values.std() - 1.0) < 1e-6

    def test_directory_with_failure(self, runner, tmp_path):
        src = tmp_path / "in"
        src.mkdir()
        good = np.zeros((3, 3, 3))
        good[1, 1, 1] = 5.0
        good[0, 0, 0] = 2.0
        write_nifti(Volume3D(good), src / "good.nii.gz")
        write_nifti(Volume3D(np.zeros((3, 3, 3))), src / "allzero.nii.gz")
        dst = tmp_path / "out"
        result = runner.invoke(
            main, ["standardize", "--in", str(src), "--out", str(dst)], catch_exceptions=False
        )
        assert result.exit_code == 1
        assert "allzero" in result.stderr and "no foreground" in result.stderr
        assert (dst / "good.nii.gz").exists()
        assert not (dst / "allzero.nii.gz").exists()


class TestEnsembleCommand:
    def test_matches_library(self, runner, tmp_path):
        rng = np.random.default_rng(4)
        dirs = []
        pairs_by_region = {"wt": [], "tc": [], "et": []}
        for model in range(2):
            d = tmp_path / f"model{model}"
            d.mkdir()
            for region in ("wt", "tc", "et"):
                p = Volume3D(rng.random((5, 5, 5)))
                q = Volume3D(rng.random((5, 5, 5)) * 0.5)
                write_nifti(p, d / f"{region}_p.nii.gz")
                write_nifti(q, d / f"{region}_q.nii.gz")
            dirs.append(d)
        out = tmp_path / "fused"
        invoke(runner, ["ensemble", "--pred", str(dirs[0]), "--pred", str(dirs[1]),
                        "--flips", "X", "--out", str(out)])
        for region in ("wt", "tc", "et"):
            pairs = []
            for d in dirs:
                p, _ = read_nifti(d / f"{region}_p.nii.gz")
                q, _ = read_nifti(d / f"{region}_q.nii.gz")
                pairs.append(PredictionPair(p=p, q=q))
            want = ensemble_with_flips(pairs, [Axis.X])
            got, _ = read_nifti(out / f"{region}_prob.nii.gz")
            np.testing.assert_allclose(got.data, want.data, atol=1e-7)

    def test_missing_pair_fails_fast(self, runner, tmp_path):
        d = tmp_path / "incomplete"
        d.mkdir()
        write_nifti(Volume3D(np.zeros((2, 2, 2))), d / "wt_p.nii.gz")
        result = runner.invoke(
            main, ["ensemble", "--pred", str(d), "--out", str(tmp_path / "o")],
            catch_exceptions=False,
        )
        assert result.exit_code == 2
        assert "missing input" in result.stderr


class TestUncertaintyCommand:
    def test_flip_formula_challenge_scale(self, runner, tmp_path):
        q = tmp_path / "q.nii.gz"
        write_nifti(Volume3D(np.full((3, 3, 3), 0.1)), q)
        out = tmp_path / "cert.nii.gz"
        invoke(runner, ["uncertainty", "--formula", "flip", "--q", str(q), "--out", str(out)])
        cert, view = read_nifti(out)
        assert view.datatype == 2  # uint8 challenge format
        assert np.all(cert.data == 80.0)

    def test_negative_only_raw(self, runner, tmp_path):
        prob = tmp_path / "p.nii.gz"
        write_nifti(Volume3D(np.full((3, 3, 3), 0.2)), prob)
        out = tmp_path / "unc.nii.gz"
        invoke(runner, ["uncertainty", "--formula", "negative-only", "--raw",
                        "--prob", str(prob), "--out", str(out)])
        cert, _ = read_nifti(out)
        assert np.all(cert.data == 60.0)

    def test_float32_is_not_rounded(self, runner, tmp_path):
        q = tmp_path / "q.nii"
        write_nifti(Volume3D(np.random.default_rng(3).random((4, 4, 4)) * 0.5), q)
        out = tmp_path / "cert.nii.gz"
        invoke(runner, ["uncertainty", "--formula", "flip", "--q", str(q),
                        "--dtype", "float32", "--out", str(out)])
        cert, view = read_nifti(out)
        assert view.datatype == 16
        want = certainty_from_q(read_nifti(q)[0]).data.astype(np.float32)
        np.testing.assert_array_equal(cert.data, want)
        assert np.any(cert.data != np.rint(cert.data))

    def test_wrong_input_kind(self, runner, tmp_path):
        result = runner.invoke(
            main, ["uncertainty", "--formula", "flip", "--prob", "x.nii", "--out", "y.nii"],
            catch_exceptions=False,
        )
        assert result.exit_code == 2


class TestPipeline:
    def test_phantom_refine_evaluate(self, runner, tmp_path):
        out_csv = run_pipeline(runner, tmp_path)
        rows = read_case_table(out_csv)
        cases = [r["case_id"] for r in rows]
        assert cases == ["phantom-0003", "phantom-0004", "mean", "std"]
        for row in rows[:2]:
            assert float(row["dice_wt"]) > 0.85
            assert float(row["dice_tc"]) > 0.85
            assert float(row["hd95_wt"]) < 5.0
            assert float(row["dice_auc_wt"]) > 0.5
        report = read_case_table(tmp_path / "phantom-0003_report.csv")
        assert report[0]["tc_fallback_used"] == "false"

    def test_refine_case_id_names_report_row(self, runner, tmp_path):
        p = np.zeros((8, 8, 8))
        p[2:6, 2:6, 2:6] = 0.95
        args = ["refine"]
        for region in ("wt", "tc", "et"):
            write_nifti(Volume3D(p), tmp_path / f"{region}.nii")
            args += [f"--prob-{region}", str(tmp_path / f"{region}.nii")]
        report = tmp_path / "report.csv"
        invoke(runner, args + ["--out-labels", str(tmp_path / "labels.nii.gz"),
                               "--case-id", "X", "--out-report", str(report)])
        assert [row["case_id"] for row in read_case_table(report)] == ["X"]

    def test_byte_identical_reruns(self, runner, tmp_path):
        a = tmp_path / "a"
        b = tmp_path / "b"
        a.mkdir()
        b.mkdir()
        csv_a = run_pipeline(runner, a, jobs=1)
        csv_b = run_pipeline(runner, b, jobs=2)  # parallelism must not change bytes
        assert csv_a.read_bytes() == csv_b.read_bytes()
        for rel in sorted(p.relative_to(a) for p in a.rglob("*") if p.is_file()):
            assert (a / rel).read_bytes() == (b / rel).read_bytes(), rel

    def test_hand_counted_dice(self, runner, tmp_path):
        # 2x2x2 cubes overlapping in 4 voxels: dice 2*4/16 = 0.5 per region
        pred_dir = tmp_path / "pred"
        gt_dir = tmp_path / "gt"
        pred_dir.mkdir()
        gt_dir.mkdir()
        pred_labels = np.zeros((6, 6, 6))
        pred_labels[0:2, 0:2, 0:2] = 4.0
        gt_labels = np.zeros((6, 6, 6))
        gt_labels[1:3, 0:2, 0:2] = 4.0
        write_nifti(Volume3D(pred_labels), pred_dir / "c.nii.gz", dtype="uint8")
        write_nifti(Volume3D(gt_labels), gt_dir / "c.nii.gz", dtype="uint8")
        out = tmp_path / "r.csv"
        invoke(runner, ["evaluate", "--pred-dir", str(pred_dir), "--gt-dir", str(gt_dir),
                        "--out-csv", str(out)])
        row = read_case_table(out)[0]
        assert float(row["dice_et"]) == 0.5
        assert float(row["dice_wt"]) == 0.5
        assert float(row["hd95_et"]) == 1.0

    def test_identical_dirs_all_dice_one(self, runner, tmp_path):
        pred_dir = tmp_path / "pred"
        pred_dir.mkdir()
        labels = np.zeros((6, 6, 6))
        labels[1:4, 1:4, 1:4] = 2.0
        labels[2, 2, 2] = 1.0
        write_nifti(Volume3D(labels), pred_dir / "c.nii.gz", dtype="uint8")
        out = tmp_path / "r.csv"
        invoke(runner, ["evaluate", "--pred-dir", str(pred_dir), "--gt-dir", str(pred_dir),
                        "--out-csv", str(out)])
        row = read_case_table(out)[0]
        assert float(row["dice_wt"]) == 1.0
        assert float(row["dice_tc"]) == 1.0
        assert float(row["dice_et"]) == 1.0  # both empty counts as agreement

    def test_corrupt_certainty_fails_only_its_case(self, runner, tmp_path):
        pred_dir, cert_dir = tmp_path / "pred", tmp_path / "cert"
        pred_dir.mkdir()
        cert_dir.mkdir()
        labels = np.zeros((6, 6, 6))
        labels[1:4, 1:4, 1:4] = 2.0
        for case in ("good", "bad"):
            write_nifti(Volume3D(labels), pred_dir / f"{case}.nii.gz", dtype="uint8")
            for challenge in ("whole", "core", "enhance"):
                write_nifti(Volume3D(np.full((6, 6, 6), 80.0)),
                            cert_dir / f"{case}_unc_{challenge}.nii.gz")
        broken = cert_dir / "bad_unc_core.nii.gz"
        broken.write_bytes(broken.read_bytes()[:-20])
        out = tmp_path / "results.csv"
        result = invoke(runner, ["evaluate", "--pred-dir", str(pred_dir), "--gt-dir", str(pred_dir),
                                 "--cert-dir", str(cert_dir), "--out-csv", str(out)], expect=1)
        assert str(broken) in result.stderr
        rows = read_case_table(out)
        assert [r["case_id"] for r in rows] == ["good", "mean", "std"]
        assert float(rows[0]["dice_auc_wt"]) == 1.0

    def test_non_finite_vox_offset_fails_only_its_case(self, runner, tmp_path):
        pred_dir = tmp_path / "pred"
        pred_dir.mkdir()
        labels = np.zeros((3, 3, 3))
        labels[1, 1, 1] = 2.0
        for case in ("good", "bad"):
            write_nifti(Volume3D(labels), pred_dir / f"{case}.nii", dtype="uint8")
        broken = pred_dir / "bad.nii"
        blob = bytearray(broken.read_bytes())
        struct.pack_into("<f", blob, 108, float("inf"))
        broken.write_bytes(bytes(blob))
        out = tmp_path / "results.csv"
        result = invoke(runner, ["evaluate", "--pred-dir", str(pred_dir), "--gt-dir", str(pred_dir),
                                 "--out-csv", str(out)], expect=1)
        assert str(broken) in result.stderr
        rows = read_case_table(out)
        assert [r["case_id"] for r in rows] == ["good", "mean", "std"]
        assert float(rows[0]["dice_wt"]) == 1.0

    def test_dim0_above_seven_fails_only_its_case(self, runner, tmp_path):
        pred_dir = tmp_path / "pred"
        pred_dir.mkdir()
        labels = np.zeros((5, 5, 5))
        labels[2, 2, 2] = 4.0
        for case in ("good", "bad"):
            write_nifti(Volume3D(labels), pred_dir / f"{case}.nii.gz", dtype="uint8")
        broken = pred_dir / "bad.nii.gz"
        blob = bytearray(gzip.decompress(broken.read_bytes()))
        struct.pack_into("<h", blob, 40, 9)
        broken.write_bytes(gzip.compress(bytes(blob), mtime=0))
        out = tmp_path / "results.csv"
        result = invoke(runner, ["evaluate", "--pred-dir", str(pred_dir), "--gt-dir", str(pred_dir),
                                 "--out-csv", str(out)], expect=1)
        assert f"{broken}: only 3D single-frame" in result.stderr
        rows = read_case_table(out)
        assert [r["case_id"] for r in rows] == ["good", "mean", "std"]
        assert float(rows[0]["dice_et"]) == 1.0

    def test_missing_gt_named(self, runner, tmp_path):
        pred = tmp_path / "pred"
        pred.mkdir()
        write_nifti(Volume3D(np.zeros((3, 3, 3))), pred / "case1.nii.gz", dtype="uint8")
        gt = tmp_path / "gt"
        gt.mkdir()
        result = runner.invoke(
            main,
            ["evaluate", "--pred-dir", str(pred), "--gt-dir", str(gt),
             "--out-csv", str(tmp_path / "r.csv")],
            catch_exceptions=False,
        )
        assert result.exit_code == 2
        assert "case1" in result.stderr


def write_cohort_csv(path, n=30, seed=0):
    rng = np.random.default_rng(seed)
    lines = ["case_id,age,n_tumors,n_cores,survival_days"]
    for i in range(n):
        cls = i % 3
        age = rng.uniform(45.0, 75.0)
        if cls == 0:
            days, tumors, cores = rng.uniform(60, 280), rng.integers(3, 6), rng.integers(2, 5)
        elif cls == 1:
            days, tumors, cores = rng.uniform(310, 440), 1, 1
        else:
            days, tumors, cores = rng.uniform(470, 950), 1, 1
        lines.append(f"case-{i:03d},{age:.2f},{tumors},{cores},{days:.1f}")
    path.write_text("\n".join(lines) + "\n")


SMALL_FOREST_CONFIG = "survival:\n  n_trees: 25\n"
ROW_TYPES = "split features and leaf counts must be integers, thresholds finite numbers"


class TestSurvivalCommands:
    def test_train_predict_cv(self, runner, tmp_path):
        features = tmp_path / "features.csv"
        write_cohort_csv(features)
        config = tmp_path / "conf.yaml"
        config.write_text(SMALL_FOREST_CONFIG)

        model_a = tmp_path / "model_a.json"
        model_b = tmp_path / "model_b.json"
        for model in (model_a, model_b):
            invoke(runner, ["survival-train", "--features-csv", str(features),
                            "--seed", "11", "--model-out", str(model),
                            "--config", str(config)])
        assert model_a.read_bytes() == model_b.read_bytes()

        preds = tmp_path / "preds.csv"
        invoke(runner, ["survival-predict", "--model", str(model_a),
                        "--features-csv", str(features), "--out-csv", str(preds)])
        rows = read_predictions_table(preds)
        assert len(rows) == 30
        assert all(0.0 <= days <= 1000.0 for _, days in rows)

        cv_csv = tmp_path / "cv.csv"
        invoke(runner, ["survival-cv", "--features-csv", str(features), "--folds", "5",
                        "--seed", "7", "--config", str(config), "--out-csv", str(cv_csv)])
        content = cv_csv.read_text()
        assert content.startswith("fold,fused_accuracy,ols_accuracy")
        assert "mean," in content

    def test_cv_prints_when_no_csv(self, runner, tmp_path):
        features = tmp_path / "features.csv"
        write_cohort_csv(features, n=15)
        config = tmp_path / "conf.yaml"
        config.write_text(SMALL_FOREST_CONFIG)
        result = invoke(runner, ["survival-cv", "--features-csv", str(features),
                                 "--folds", "3", "--seed", "1", "--config", str(config)])
        assert result.output.splitlines()[0] == "fold,fused_accuracy,ols_accuracy"

    def test_malformed_model_is_usage_error(self, runner, tmp_path):
        features = tmp_path / "features.csv"
        write_cohort_csv(features, n=5)
        model = tmp_path / "model.json"
        model.write_text('{"format": "uqseg-survival-fusion"}')
        result = invoke(runner, ["survival-predict", "--model", str(model), "--features-csv",
                                 str(features), "--out-csv", str(tmp_path / "p.csv")], expect=2)
        assert f"{model}: survival model lacks key 'bins'" in result.stderr
        assert not (tmp_path / "p.csv").exists()

    def test_bad_model_value_is_usage_error(self, runner, tmp_path):
        features = tmp_path / "features.csv"
        write_cohort_csv(features, n=5)
        model = tmp_path / "model.json"
        invoke(runner, ["survival-train", "--features-csv", str(features), "--model-out", str(model)])
        model.write_text(model.read_text().replace('"n_cores"', '"n_cores_x"'))
        result = invoke(runner, ["survival-predict", "--model", str(model), "--features-csv",
                                 str(features), "--out-csv", str(tmp_path / "p.csv")], expect=2)
        assert f"{model}: bad survival model: unknown feature(s) ['n_cores_x']" in result.stderr
        assert not (tmp_path / "p.csv").exists()

    def test_nan_age_names_case(self, runner, tmp_path):
        features = tmp_path / "features.csv"
        write_cohort_csv(features, n=12)
        lines = features.read_text().splitlines()
        lines[4] = "case-bad,nan,1,1,300.0"
        features.write_text("\n".join(lines) + "\n")
        result = invoke(runner, ["survival-train", "--features-csv", str(features),
                                 "--model-out", str(tmp_path / "m.json")], expect=2)
        assert "(case-bad)" in result.stderr and "must be finite" in result.stderr
        assert "SVD" not in result.stderr
        assert not (tmp_path / "m.json").exists()

    @pytest.mark.parametrize("setting", ["n_trees: 0", "n_trees: 2.7", "max_depth: -1", "max_depth: 11"])
    def test_unholdable_forest_config_is_usage_error(self, runner, tmp_path, setting):
        features = tmp_path / "features.csv"
        write_cohort_csv(features, n=12)
        config = tmp_path / "conf.yaml"
        config.write_text(f"survival:\n  {setting}\n")
        result = invoke(runner, ["survival-train", "--features-csv", str(features), "--config", str(config),
                                 "--model-out", str(tmp_path / "m.json")], expect=2)
        key, value = setting.split(": ")
        assert f"bad configuration: {key} must be an integer in" in result.stderr
        assert f"got {value}" in result.stderr
        assert not (tmp_path / "m.json").exists()

    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda d: d.update(version=1), "format version 1 is not 2; retrain the model"),
            (lambda d: d["forest"]["trees"][0][0].append(0), "tree rows differ in shape"),
            (lambda d: d["forest"]["trees"][0][2][0].append(1), "tree rows differ in shape"),
            (lambda d: d["forest"].update(trees=[[[0, 0], [1.0, 2.0], [[1, 0, 0]] * 3]]),
             "tree rows of 2 splits and leaf counts (3, 3) are not 2**d - 1 splits"),
            (lambda d: d["forest"]["trees"][0][0].__setitem__(0, 3), "split feature 3 is outside a set of 3"),
            (lambda d: d["forest"]["trees"][0][2][0].__setitem__(0, -1), "leaf counts must be >= 0"),
            (lambda d: d["forest"]["trees"][0][2].__setitem__(0, [0, 0, 0]),
             "leaf counts must be >= 0 with at least one record per leaf"),
            (lambda d: d["forest"]["trees"][0][2][0].__setitem__(0, True), ROW_TYPES),
            (lambda d: d["forest"]["trees"][0][1].__setitem__(0, float("nan")), ROW_TYPES),
        ],
        ids=["version-1", "ragged-splits", "ragged-counts", "not-2**d-1-splits", "feature-outside",
             "negative-count", "empty-leaf", "boolean-count", "nan-threshold"],
    )
    def test_refused_model_rows_are_usage_error(self, runner, tmp_path, edit, message):
        features = tmp_path / "features.csv"
        write_cohort_csv(features, n=12)
        config = tmp_path / "conf.yaml"
        config.write_text(SMALL_FOREST_CONFIG)
        model = tmp_path / "model.json"
        invoke(runner, ["survival-train", "--features-csv", str(features), "--model-out", str(model),
                        "--config", str(config)])
        doc = json.loads(model.read_text())
        edit(doc)
        model.write_text(json.dumps(doc))
        result = invoke(runner, ["survival-predict", "--model", str(model), "--features-csv",
                                 str(features), "--out-csv", str(tmp_path / "p.csv")], expect=2)
        assert f"{model}: bad survival model: {message}" in result.stderr
        assert not (tmp_path / "p.csv").exists()

    @pytest.mark.parametrize("content", [b"not a model\n", b"\xff\xfe"], ids=["text", "not-utf8"])
    def test_non_json_model_names_path(self, runner, tmp_path, content):
        features = tmp_path / "features.csv"
        write_cohort_csv(features, n=5)
        model = tmp_path / "model.json"
        model.write_bytes(content)
        result = invoke(runner, ["survival-predict", "--model", str(model), "--features-csv",
                                 str(features), "--out-csv", str(tmp_path / "p.csv")], expect=2)
        assert f"{model}: not a JSON survival model" in result.stderr
        assert not (tmp_path / "p.csv").exists()

    def test_bad_cell_names_file_case_and_column(self, runner, tmp_path):
        features = tmp_path / "features.csv"
        features.write_text("case_id,age,n_tumors,n_cores,survival_days\ncase-7,abc,1,1,300\n")
        result = invoke(runner, ["survival-train", "--features-csv", str(features),
                                 "--model-out", str(tmp_path / "m.json")], expect=2)
        assert f"{features}: case 'case-7': bad age 'abc'" in result.stderr
        assert not (tmp_path / "m.json").exists()

    def test_unlabeled_rows_is_usage_error(self, runner, tmp_path):
        features = tmp_path / "features.csv"
        features.write_text("case_id,age,n_tumors,n_cores,survival_days\nx,60,1,1,\n")
        result = runner.invoke(
            main, ["survival-train", "--features-csv", str(features),
                   "--model-out", str(tmp_path / "m.json")],
            catch_exceptions=False,
        )
        assert result.exit_code == 2


class TestFeaturesCommand:
    def test_extracts_counts(self, runner, tmp_path):
        labels_dir = tmp_path / "labels"
        labels_dir.mkdir()
        labels = np.zeros((10, 6, 6))
        labels[1:3, 1:3, 1:3] = 2.0  # one WT blob (edema)
        labels[6:8, 1:3, 1:3] = 1.0  # second blob, core
        write_nifti(Volume3D(labels), labels_dir / "caseA.nii.gz", dtype="uint8")
        meta = tmp_path / "meta.csv"
        meta.write_text("case_id,age,survival_days\ncaseA,61.5,400\n")
        out = tmp_path / "features.csv"
        invoke(runner, ["features", "--labels-dir", str(labels_dir),
                        "--meta-csv", str(meta), "--out-csv", str(out)])
        records = read_survival_table(out)
        assert len(records) == 1
        assert records[0].n_tumors == 2
        assert records[0].n_cores == 1
        assert records[0].survival_days == 400.0


def test_cli_import_skips_scipy_stats():
    code = "import sys, uqseg.cli; print('scipy.stats' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True, timeout=120)
    assert out.stdout.strip() == "False"


class TestInitConfig:
    def test_written_config_loads(self, runner, tmp_path):
        path = tmp_path / "conf.yaml"
        invoke(runner, ["init-config", "--out", str(path)])
        invoke(runner, ["survival-cv", "--help"])  # sanity: CLI intact
        text = path.read_text()
        assert "base_threshold: 0.5" in text
        assert "fallback_threshold: 0.05" in text
        assert "n_trees: 1000" in text
