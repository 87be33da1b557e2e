import gzip
import json
import os
import struct
import subprocess
import sys

import numpy as np
import pytest
from click.testing import CliRunner

from oracles import gzip_read_bytes
from uqseg.cli import main
from uqseg.ensemble import PredictionPair, ensemble_with_flips
from uqseg.nifti import read_nifti, write_nifti
from uqseg.phantom import PhantomConfig
from uqseg.tables import read_case_table, read_survival_table
from uqseg.uncertainty import certainty_from_q
from uqseg.volumes import Axis, Volume3D


@pytest.fixture
def runner():
    return CliRunner()


def invoke(runner, args, expect=0):
    result = runner.invoke(main, args, catch_exceptions=False)
    assert result.exit_code == expect, f"exit {result.exit_code}: {result.output}\n{result.stderr}"
    return result


def refine_args(prob_dir, out_labels):
    args = ["refine", "--out-labels", str(out_labels)]
    for region in ("wt", "tc", "et"):
        args += [f"--prob-{region}", str(prob_dir / f"{region}_p.nii.gz")]
    return args


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
        invoke(runner, refine_args(cases_dir / case, pred_dir / f"{case}.nii.gz")
               + ["--out-report", str(root / f"{case}_report.csv")])
        for region, challenge in (("wt", "whole"), ("tc", "core"), ("et", "enhance")):
            invoke(runner, [
                "uncertainty", "--formula", "flip",
                "--q", str(cases_dir / case / f"{region}_q.nii.gz"),
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

    def test_refused_pair_fails_its_region_naming_files(self, runner, tmp_path):
        d = tmp_path / "model"
        for region in ("wt", "tc", "et"):
            write_nifti(Volume3D(np.full((3, 3, 3), 0.8)), d / f"{region}_p.nii.gz")
            write_nifti(Volume3D(np.full((3, 3, 3), 0.1)), d / f"{region}_q.nii.gz")
        write_nifti(Volume3D(np.full((3, 3, 3), 0.7)), d / "tc_q.nii.gz")
        out = tmp_path / "fused"
        result = invoke(runner, ["ensemble", "--pred", str(d), "--out", str(out)], expect=1)
        assert f"error: tc: {d / 'tc_p.nii.gz'}, {d / 'tc_q.nii.gz'}: q values must lie in [0, 0.5]" in result.stderr
        assert sorted(f.name for f in out.iterdir()) == ["et_prob.nii.gz", "wt_prob.nii.gz"]


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

    @pytest.mark.parametrize("dtype", ["uint8", "float32"])
    def test_q_outside_range_names_file(self, runner, tmp_path, dtype):
        q = tmp_path / "q.nii.gz"
        write_nifti(Volume3D(np.full((3, 3, 3), 0.7)), q)
        out = tmp_path / "cert.nii.gz"
        result = invoke(runner, ["uncertainty", "--formula", "flip", "--q", str(q), "--dtype", dtype,
                                 "--out", str(out)], expect=1)
        assert f"error: {q}: q values must lie in [0, 0.5]" in result.stderr
        assert not out.exists()

    @pytest.mark.parametrize("dtype", ["uint8", "float32"])
    @pytest.mark.parametrize("raw", [False, True])
    @pytest.mark.parametrize("formula", ["symmetric", "negative-only"])
    def test_p_outside_range_names_file(self, runner, tmp_path, formula, raw, dtype):
        data = np.full((3, 3, 3), 0.4)
        data[0, 0, 0], data[2, 2, 2] = 1.2, -0.5
        prob = tmp_path / "p.nii.gz"
        write_nifti(Volume3D(data), prob)
        out = tmp_path / "cert.nii.gz"
        result = invoke(runner, ["uncertainty", "--formula", formula, *(["--raw"] if raw else []),
                                 "--dtype", dtype, "--prob", str(prob), "--out", str(out)], expect=1)
        assert result.stderr == f"error: {prob}: p values must lie in [0, 1]\n"
        assert not out.exists()

    def test_wrong_input_kind(self, runner, tmp_path):
        result = runner.invoke(
            main, ["uncertainty", "--formula", "flip", "--prob", "x.nii", "--out", "y.nii"],
            catch_exceptions=False,
        )
        assert result.exit_code == 2


def volume_writer_args(command, case, out):
    """``command``'s arguments to write from phantom ``case`` under ``out``, and the files it writes."""
    if command == "refine":
        return refine_args(case, out / "labels.nii.gz"), [out / "labels.nii.gz"]
    if command == "uncertainty":
        return (["uncertainty", "--formula", "flip", "--q", str(case / "wt_q.nii.gz"), "--out", str(out / "cert.nii.gz")],
                [out / "cert.nii.gz"])
    if command == "ensemble":
        return ["ensemble", "--pred", str(case), "--out", str(out)], [out / f"{r}_prob.nii.gz" for r in ("wt", "tc", "et")]
    return ["standardize", "--in", str(case), "--out", str(out)], sorted(out / f.name for f in case.glob("*.nii.gz"))


def part_files(root):
    return [p for p in root.rglob("*") if p.name.endswith(".part")]


class TestFailurePath:
    @pytest.mark.parametrize("command", ["refine", "uncertainty", "ensemble", "standardize"])
    def test_write_into_directory_fails_its_case(self, runner, tmp_path, command):
        """A target that is a directory fails its own case; the command's other files are written."""
        invoke(runner, ["phantom", "--seed", "1", "--out", str(tmp_path / "cases")])
        case = tmp_path / "cases" / "phantom-0001"
        args, (target, *others) = volume_writer_args(command, case, tmp_path / "out")
        target.mkdir(parents=True)
        result = invoke(runner, args, expect=1)
        assert result.stderr.startswith("error: ")
        assert str(target) in result.stderr and "Traceback" not in result.stderr
        assert part_files(tmp_path) == []
        assert all(p.is_file() for p in others)

    @pytest.mark.parametrize("command", ["refine", "uncertainty", "ensemble", "standardize"])
    def test_write_under_a_file_fails_its_case(self, runner, tmp_path, command):
        """Every target under a regular file is an error line naming it; the file is left alone."""
        invoke(runner, ["phantom", "--seed", "1", "--out", str(tmp_path / "cases")])
        case = tmp_path / "cases" / "phantom-0001"
        blocker = tmp_path / "blocker"
        blocker.write_text("kept")
        args, targets = volume_writer_args(command, case, blocker)
        result = invoke(runner, args, expect=1)
        errors = [line for line in result.stderr.splitlines() if line.startswith("error: ")]
        assert len(errors) == len(targets)
        assert all(f"Not a directory: '{t}'" in e for t, e in zip(targets, errors))
        assert "Traceback" not in result.stderr
        assert blocker.read_text() == "kept" and part_files(tmp_path) == []

    @pytest.mark.parametrize("command", ["evaluate", "features", "survival-train", "survival-predict",
                                         "survival-cv", "init-config"])
    def test_unwritable_output_is_error_line(self, runner, tmp_path, command):
        target = tmp_path / "out"
        target.mkdir()
        labels, features, config = tmp_path / "labels", tmp_path / "features.csv", tmp_path / "conf.yaml"
        write_nifti(Volume3D(np.zeros((3, 3, 3))), labels / "c0.nii.gz", dtype="uint8")
        (tmp_path / "meta.csv").write_text("case_id,age\nc0,60\n")
        write_cohort_csv(features, n=6)
        config.write_text(SMALL_FOREST_CONFIG)
        survival = ["--features-csv", str(features)]
        if command == "survival-predict":
            invoke(runner, ["survival-train", *survival, "--config", str(config),
                            "--model-out", str(tmp_path / "model.json")])
        args = {
            "evaluate": ["--pred-dir", str(labels), "--gt-dir", str(labels), "--out-csv"],
            "features": ["--labels-dir", str(labels), "--meta-csv", str(tmp_path / "meta.csv"), "--out-csv"],
            "survival-train": [*survival, "--config", str(config), "--model-out"],
            "survival-predict": [*survival, "--model", str(tmp_path / "model.json"), "--out-csv"],
            "survival-cv": [*survival, "--config", str(config), "--folds", "3", "--out-csv"],
            "init-config": ["--out"],
        }[command]
        result = invoke(runner, [command, *args, str(target)], expect=1)
        assert result.stderr.splitlines()[-1].startswith(f"error: {target}: ")
        assert "Traceback" not in result.stderr
        assert [p.name for p in tmp_path.iterdir() if p.name.endswith(".part")] == []
        assert list(target.iterdir()) == []

    @pytest.mark.parametrize("command, option", [
        ("features", "--meta-csv"), ("survival-train", "--features-csv"), ("survival-predict", "--model"),
        ("survival-predict", "--features-csv"), ("survival-cv", "--features-csv"),
    ])
    def test_directory_for_input_file_is_usage_error(self, runner, tmp_path, command, option):
        labels, meta, features, model = (tmp_path / name for name in ("labels", "meta.csv", "features.csv", "m.json"))
        write_nifti(Volume3D(np.zeros((3, 3, 3))), labels / "c0.nii.gz", dtype="uint8")
        meta.write_text("case_id,age\nc0,60\n")
        write_cohort_csv(features, n=6)
        model.write_text("{}")
        out = tmp_path / "out"
        args = {
            "features": ["--labels-dir", str(labels), "--meta-csv", str(meta), "--out-csv", str(out)],
            "survival-train": ["--features-csv", str(features), "--model-out", str(out)],
            "survival-predict": ["--model", str(model), "--features-csv", str(features), "--out-csv", str(out)],
            "survival-cv": ["--features-csv", str(features), "--out-csv", str(out)],
        }[command]
        args[args.index(option) + 1] = str(labels)
        result = invoke(runner, [command, *args], expect=2)
        assert f"Invalid value for '{option}': File '{labels}' is a directory." in result.stderr
        assert "Traceback" not in result.stderr
        assert not out.exists()

    @pytest.mark.parametrize("inflater", ["libdeflate", "zlib"], indirect=True)
    @pytest.mark.parametrize("damage", ["truncated", "bit-flipped"])
    def test_corrupt_gzip_input_is_error_line(self, runner, tmp_path, inflater, damage):
        """Each reading command gives the former reader's error for a damaged .nii.gz, whichever inflater runs."""
        pair, labels, out = tmp_path / "pair", tmp_path / "labels", tmp_path / "out"
        write_nifti(Volume3D(np.random.default_rng(4).random((6, 6, 6)) * 0.5), tmp_path / "good.nii.gz")
        good = (tmp_path / "good.nii.gz").read_bytes()
        middle = len(good) // 2
        blob = good[:middle] if damage == "truncated" else good[:middle] + bytes([good[middle] ^ 4]) + good[middle + 1:]
        for path in [*(pair / f"{region}_{kind}.nii.gz" for region in ("wt", "tc", "et") for kind in "pq"),
                     labels / "c.nii.gz"]:
            path.parent.mkdir(exist_ok=True)
            path.write_bytes(blob)
        (tmp_path / "meta.csv").write_text("case_id,age\nc,60\n")
        wt_p, wt_q, label_map = pair / "wt_p.nii.gz", pair / "wt_q.nii.gz", labels / "c.nii.gz"
        runs = {  # the arguments, then (case name, unreadable file) for each error line
            "ensemble": (["--pred", str(pair), "--out", str(out)],
                         [(region, pair / f"{region}_p.nii.gz") for region in ("wt", "tc", "et")]),
            "refine": (refine_args(pair, out / "c.nii.gz")[1:], [("c", wt_p)]),
            "uncertainty": (["--formula", "flip", "--q", str(wt_q), "--out", str(out / "u.nii.gz")],
                            [(wt_q, wt_q)]),
            "evaluate": (["--pred-dir", str(labels), "--gt-dir", str(labels), "--out-csv", str(out / "r.csv")],
                         [("c", label_map)]),
            "features": (["--labels-dir", str(labels), "--meta-csv", str(tmp_path / "meta.csv"),
                          "--out-csv", str(out / "f.csv")], [("c", label_map)]),
            "standardize": (["--in", str(wt_p), "--out", str(out / "s.nii.gz")], [(wt_p.name, wt_p)]),
        }
        for command, (args, failures) in runs.items():
            expected = []
            for name, path in failures:
                with pytest.raises(ValueError) as former:
                    gzip_read_bytes(path)
                expected.append(f"error: {name}: {former.value}\n")
            result = invoke(runner, [command, *args], expect=1)
            assert result.stderr == "".join(expected), command
        assert not [p for p in tmp_path.rglob("*") if p.name.endswith(".part")]
        assert sorted(p.name for p in out.iterdir()) == ["f.csv", "r.csv"]  # the header-only tables

    def test_phantom_case_that_cannot_be_written_fails_alone(self, runner, tmp_path):
        cases = tmp_path / "cases"
        cases.mkdir()
        (cases / "phantom-0000").write_text("not a directory")
        result = invoke(runner, ["phantom", "--seed", "0", "--count", "3", "--out", str(cases)], expect=1)
        assert result.stderr.splitlines()[-1] == (
            f"error: phantom-0000: [Errno 17] File exists: '{cases / 'phantom-0000'}'")
        assert "Traceback" not in result.stderr
        for case in ("phantom-0001", "phantom-0002"):
            assert f"generated {case}" in result.stderr
            assert read_nifti(cases / case / "et_q.nii.gz")[0].dims == PhantomConfig.dims
            assert (cases / "gt" / f"{case}.nii.gz").is_file()
        assert not (cases / "gt" / "phantom-0000.nii.gz").exists()
        assert [p for p in tmp_path.rglob("*") if p.name.endswith(".part")] == []

    def test_phantom_writes_nii_gz_past_leftover_plain_files(self, runner, tmp_path):
        cases, clean = tmp_path / "cases", tmp_path / "clean"
        leftovers = [cases / "phantom-0001" / "wt_p.nii", cases / "gt" / "phantom-0001.nii"]
        for path in leftovers:
            path.parent.mkdir(parents=True)
            path.write_bytes(b"leftover")
        invoke(runner, ["phantom", "--seed", "1", "--out", str(cases)])
        invoke(runner, ["phantom", "--seed", "1", "--out", str(clean)])
        assert [path.read_bytes() for path in leftovers] == [b"leftover", b"leftover"]
        written = sorted(str(p.relative_to(clean)) for p in clean.rglob("*") if p.is_file())
        assert len(written) == 7 and all(name.endswith(".nii.gz") for name in written)
        for name in written:
            assert (cases / name).read_bytes() == (clean / name).read_bytes(), name

    def test_unwritable_target_error_names_only_the_target(self, runner, tmp_path):
        target = tmp_path / "d.csv"
        target.mkdir()
        result = invoke(runner, ["init-config", "--out", str(target)], expect=1)
        assert result.stderr == f"error: {target}: [Errno 21] Is a directory: '{target}'\n"
        assert ".part" not in result.stderr and str(os.getpid()) not in result.stderr
        assert list(tmp_path.iterdir()) == [target] and list(target.iterdir()) == []

    def test_refine_missing_channel_fails_fast(self, runner, tmp_path):
        invoke(runner, ["phantom", "--seed", "1", "--out", str(tmp_path / "cases")])
        case = tmp_path / "cases" / "phantom-0001"
        (case / "tc_p.nii.gz").unlink()
        result = invoke(runner, refine_args(case, tmp_path / "labels.nii.gz"), expect=2)
        assert f"refine: missing input file(s): {case / 'tc_p.nii.gz'}" in result.stderr
        assert not (tmp_path / "labels.nii.gz").exists()

    def test_uncertainty_missing_input_fails_fast(self, runner, tmp_path):
        q = tmp_path / "q.nii.gz"
        result = invoke(runner, ["uncertainty", "--formula", "flip", "--q", str(q),
                                 "--out", str(tmp_path / "cert.nii.gz")], expect=2)
        assert f"uncertainty: missing input file(s): {q}" in result.stderr

    def test_evaluate_missing_certainty_maps_capped_at_ten(self, runner, tmp_path):
        pred, cert = tmp_path / "pred", tmp_path / "cert"
        cert.mkdir()
        for i in range(4):
            write_nifti(Volume3D(np.zeros((3, 3, 3))), pred / f"c{i}.nii.gz", dtype="uint8")
        result = invoke(runner, ["evaluate", "--pred-dir", str(pred), "--gt-dir", str(pred),
                                 "--cert-dir", str(cert), "--out-csv", str(tmp_path / "r.csv")], expect=2)
        message = result.stderr.strip().splitlines()[-1]
        shown = [cert / f"c{i}_unc_{c}.nii.gz" for i in range(4) for c in ("whole", "core", "enhance")]
        expected = ", ".join(str(p) for p in shown[:10])
        assert message.endswith(f"evaluate: missing input file(s): {expected} (+2 more)")
        assert not (tmp_path / "r.csv").exists()

    def test_features_missing_labels_capped_at_ten(self, runner, tmp_path):
        labels = tmp_path / "labels"
        labels.mkdir()
        meta = tmp_path / "meta.csv"
        meta.write_text("case_id,age\n" + "".join(f"case{i:02d},60\n" for i in range(13)))
        result = invoke(runner, ["features", "--labels-dir", str(labels), "--meta-csv", str(meta),
                                 "--out-csv", str(tmp_path / "f.csv")], expect=2)
        assert "features: missing input file(s): " in result.stderr
        assert f"{labels / 'case09.nii.gz'} (+3 more)" in result.stderr
        assert "case10" not in result.stderr
        assert not (tmp_path / "f.csv").exists()


def fault_rows(root):
    """Inputs under ``root``, then (id, argv, exit code, what the error names, healthy outputs) per fault.

    ``pair`` and ``labels`` are healthy; each ``pair-*`` and ``labels-*`` copy
    breaks its tc or c1 file, as ``cert`` its c1 whole-tumour map and
    ``cert-spacing`` c1's three maps; ``p-spacing`` is a p map at 2 mm. Every
    healthy output goes under ``root / "out"``; ``phantom-out`` holds a
    regular file named ``gt``.
    """
    label_map = np.zeros((6, 6, 6), dtype=np.uint8)
    label_map[1:4, 1:4, 1:4] = 2
    for name in ("pair", "pair-missing", "pair-directory", "pair-grid"):
        for region in ("wt", "tc", "et"):
            write_nifti(Volume3D(np.full((6, 6, 6), 0.7)), root / name / f"{region}_p.nii.gz")
            write_nifti(Volume3D(np.full((6, 6, 6), 0.1)), root / name / f"{region}_q.nii.gz")
    for name in ("labels", "labels-missing", "labels-directory", "labels-grid", "labels-scaled", "labels-spacing"):
        for case in ("c0", "c1"):
            write_nifti(Volume3D(label_map), root / name / f"{case}.nii.gz", dtype="uint8")
    for broken in ("pair-missing/tc_p", "pair-directory/tc_p", "labels-missing/c1", "labels-directory/c1",
                   "labels-scaled/c1"):
        (root / f"{broken}.nii.gz").unlink()
    scaled = root / "labels-scaled" / "c1.nii"  # stored 4 and 3 at slope 0.5: labels 2 and 1.5
    write_nifti(Volume3D(np.where(label_map == 2, 4, 0) + (np.arange(216).reshape(6, 6, 6) == 0) * 3),
                scaled, dtype="uint8")
    blob = bytearray(scaled.read_bytes())
    struct.pack_into("<f", blob, 112, 0.5)
    scaled.write_bytes(bytes(blob))
    write_nifti(Volume3D(np.zeros((6, 6, 6)), (2.0, 2.0, 2.0)), root / "labels-spacing" / "c1.nii.gz", dtype="uint8")
    for case in ("c0", "c1"):
        for c in ("whole", "core", "enhance"):
            write_nifti(Volume3D(np.full((6, 6, 6), 80.0)), root / "cert" / f"{case}_unc_{c}.nii.gz", dtype="uint8")
            write_nifti(Volume3D(np.full((6, 6, 6), 80.0), (3.0 if case == "c1" else 1.0,) * 3),
                        root / "cert-spacing" / f"{case}_unc_{c}.nii.gz", dtype="uint8")
    write_nifti(Volume3D(np.full((6, 6, 6), 250.0)), root / "cert" / "c1_unc_whole.nii.gz", dtype="uint8")
    write_nifti(Volume3D(np.full((6, 6, 6), 5.0)), root / "p-range.nii.gz")
    write_nifti(Volume3D(np.full((6, 6, 6), 0.7), (2.0, 2.0, 2.0)), root / "p-spacing.nii.gz")
    (root / "pair-directory" / "tc_p.nii.gz").mkdir()
    (root / "labels-directory" / "c1.nii.gz").mkdir()
    small = root / "small.nii.gz"
    for path in (small, root / "pair-grid" / "tc_q.nii.gz"):
        write_nifti(Volume3D(np.full((5, 5, 5), 0.1)), path)
    write_nifti(Volume3D(label_map[:5, :5, :5]), root / "labels-grid" / "c1.nii.gz", dtype="uint8")
    (root / "meta.csv").write_text("case_id,age\nc0,60\nc1,61\n")
    write_cohort_csv(root / "features.csv", n=6)
    configs = {"small": SMALL_FOREST_CONFIG, "cap": "survival:\n  cap_days: -5\n",
               "prob": "survival:\n  override_prob: 7\n", "huge": f"survival:\n  cap_days: {'9' * 400}\n",
               "bin": "survival:\n  override_days:\n    short: 400\n"}
    for name, text in configs.items():
        (root / f"{name}.yaml").write_text(text)
    small_forest = ["--config", str(root / "small.yaml")]
    invoke(CliRunner(), ["survival-train", "--features-csv", str(root / "features.csv"), *small_forest,
                         "--model-out", str(root / "model.json")])
    model = json.loads((root / "model.json").read_text())
    model["ols"]["cap_days"] = -5
    (root / "model-cap.json").write_text(json.dumps(model))
    (root / "blocker").write_text("kept")
    (root / "directory").mkdir()
    (root / "phantom-out").mkdir()
    (root / "phantom-out" / "gt").write_text("a file where the ground-truth directory goes")
    out, none, directory, blocked = root / "out", root / "none.nii.gz", root / "directory", root / "blocker" / "x"
    cap = "cap_days must be > 0, got -5.0"
    prob = "override_prob must be in [0, 1], got 7.0"

    def refine(tc, *extra):
        return ["refine", "--prob-wt", str(root / "pair" / "wt_p.nii.gz"), "--prob-tc", str(tc),
                "--prob-et", str(root / "pair" / "et_p.nii.gz"), *extra, "--out-labels", str(out / "l.nii.gz")]

    def ensemble(pair):
        return ["ensemble", "--pred", str(root / pair), "--out", str(out)]

    def evaluate(pred="labels", gt="labels", target=out / "r.csv", *extra):
        return ["evaluate", "--pred-dir", str(root / pred), "--gt-dir", str(root / gt), *extra,
                "--out-csv", str(target)]

    def features(labels="labels", meta=root / "meta.csv", target=out / "f.csv"):
        return ["features", "--labels-dir", str(root / labels), "--meta-csv", str(meta), "--out-csv", str(target)]

    def survival(command, features=root / "features.csv", *extra):
        return [command, "--features-csv", str(features), *extra]

    untouched_regions = [out / "wt_prob.nii.gz", out / "et_prob.nii.gz"]
    return [
        ("standardize-missing", ["standardize", "--in", str(none), "--out", str(out / "s.nii.gz")], 2, none, []),
        ("ensemble-missing-directory", ensemble("none"), 2, root / "none", []),
        ("ensemble-missing", ensemble("pair-missing"), 2, root / "pair-missing" / "tc_p.nii.gz", []),
        ("ensemble-directory", ensemble("pair-directory"), 1, root / "pair-directory" / "tc_p.nii.gz",
         untouched_regions),
        ("ensemble-grid", ensemble("pair-grid"), 1, root / "pair-grid" / "tc_q.nii.gz", untouched_regions),
        ("refine-missing", refine(none), 2, none, []),
        ("refine-directory", refine(directory), 1, directory, []),
        ("refine-grid", refine(small), 1, small, []),
        ("refine-config", refine(root / "pair" / "tc_p.nii.gz", "--config", str(root / "cap.yaml")), 2, cap, []),
        ("refine-report-under-file", refine(root / "pair" / "tc_p.nii.gz", "--out-report", str(blocked)),
         1, blocked, []),
        ("refine-config-override-bin", refine(root / "pair" / "tc_p.nii.gz", "--config", str(root / "bin.yaml")),
         2, "bad configuration: override value 400.0 for short falls outside its own class bin", []),
        ("refine-spacing", refine(root / "p-spacing.nii.gz"), 1,
         f"error: l: {root / 'p-spacing.nii.gz'}: spacing mismatch: (1.0, 1.0, 1.0) vs (2.0, 2.0, 2.0)", []),
        ("refine-range", refine(root / "p-range.nii.gz", "--out-report", str(out / "rep.csv")), 1,
         f"{root / 'p-range.nii.gz'}: p values must lie in [0, 1]", []),
        ("uncertainty-missing", ["uncertainty", "--formula", "flip", "--q", str(none), "--out", str(out / "u.nii")],
         2, none, []),
        ("uncertainty-directory", ["uncertainty", "--formula", "symmetric", "--prob", str(directory),
                                   "--out", str(out / "u.nii")], 1, directory, []),
        ("evaluate-missing-directory", evaluate(gt="none"), 2, root / "none", []),
        ("evaluate-missing", evaluate(gt="labels-missing"), 2, root / "labels-missing" / "c1.nii.gz", []),
        ("evaluate-directory", evaluate(pred="labels-directory"), 1, root / "labels-directory" / "c1.nii.gz",
         [out / "r.csv"]),
        ("evaluate-grid", evaluate(gt="labels-grid"), 1, root / "labels-grid" / "c1.nii.gz", [out / "r.csv"]),
        ("evaluate-under-file", evaluate(target=blocked), 1, blocked, []),
        ("evaluate-certainty-range", evaluate("labels", "labels", out / "r.csv", "--cert-dir", str(root / "cert")),
         1, f"{root / 'cert' / 'c1_unc_whole.nii.gz'}: certainty values must lie in [0, 100]", [out / "r.csv"]),
        ("evaluate-scaled-labels", evaluate(pred="labels-scaled"), 1,
         f"{scaled}: label values [1.5] outside declared set [0, 1, 2, 4]", [out / "r.csv"]),
        ("evaluate-spacing-empty", evaluate(pred="labels-spacing"), 1,
         f"error: c1: {root / 'labels' / 'c1.nii.gz'}: spacing mismatch: (2.0, 2.0, 2.0) vs (1.0, 1.0, 1.0)",
         [out / "r.csv"]),
        ("evaluate-cert-spacing", evaluate("labels", "labels", out / "r.csv", "--cert-dir", str(root / "cert-spacing")),
         1, f"error: c1: {root / 'cert-spacing' / 'c1_unc_whole.nii.gz'}: spacing mismatch: (1.0, 1.0, 1.0) vs "
            "(3.0, 3.0, 3.0)", [out / "r.csv"]),
        ("evaluate-jobs", evaluate("labels", "labels", out / "r.csv", "--jobs", "0"), 2, "--jobs", []),
        ("evaluate-config", evaluate("labels", "labels", out / "r.csv", "--config", str(root / "prob.yaml")),
         2, prob, []),
        ("features-missing", features(meta=none), 2, none, []),
        ("features-directory", features(meta=directory), 2, directory, []),
        ("features-missing-label", features("labels-missing"), 2, root / "labels-missing" / "c1.nii.gz", []),
        ("features-label-directory", features("labels-directory"), 1, root / "labels-directory" / "c1.nii.gz",
         [out / "f.csv"]),
        ("features-under-file", features(target=blocked), 1, blocked, []),
        ("train-missing", survival("survival-train", none, "--model-out", str(out / "m.json")), 2, none, []),
        ("train-directory", survival("survival-train", directory, "--model-out", str(out / "m.json")),
         2, directory, []),
        ("train-under-file", survival("survival-train", root / "features.csv", *small_forest,
                                      "--model-out", str(blocked)), 1, blocked, []),
        ("train-cap", survival("survival-train", root / "features.csv", "--config", str(root / "cap.yaml"),
                               "--model-out", str(out / "m.json")), 2, cap, []),
        ("train-seed", survival("survival-train", root / "features.csv", "--seed", "-1",
                                "--model-out", str(out / "m.json")), 2, "--seed", []),
        ("train-prob", survival("survival-train", root / "features.csv", "--config", str(root / "prob.yaml"),
                                "--model-out", str(out / "m.json")), 2, prob, []),
        ("predict-missing", survival("survival-predict", root / "features.csv", "--model", str(none),
                                     "--out-csv", str(out / "p.csv")), 2, none, []),
        ("predict-directory", survival("survival-predict", root / "features.csv", "--model", str(directory),
                                       "--out-csv", str(out / "p.csv")), 2, directory, []),
        ("predict-model-cap", survival("survival-predict", root / "features.csv", "--model",
                                       str(root / "model-cap.json"), "--out-csv", str(out / "p.csv")),
         2, f"{root / 'model-cap.json'}: bad survival model: cap_days must be > 0, got -5", []),
        ("predict-under-file", survival("survival-predict", root / "features.csv", "--model",
                                        str(root / "model.json"), "--out-csv", str(blocked)), 1, blocked, []),
        ("cv-missing", survival("survival-cv", none, "--out-csv", str(out / "cv.csv")), 2, none, []),
        ("cv-under-file", survival("survival-cv", root / "features.csv", *small_forest, "--folds", "3",
                                   "--out-csv", str(blocked)), 1, blocked, []),
        ("cv-config", survival("survival-cv", root / "features.csv", "--config", str(root / "cap.yaml")),
         2, cap, []),
        ("cv-seed", survival("survival-cv", root / "features.csv", "--seed", "-1"), 2, "--seed", []),
        ("cv-config-huge", survival("survival-cv", root / "features.csv", "--config", str(root / "huge.yaml")),
         2, "bad configuration: cap_days must be a number, got 999", []),
        ("phantom-config-missing", ["phantom", "--out", str(out), "--config", str(none)], 2, none, []),
        ("phantom-config-directory", ["phantom", "--out", str(out), "--config", str(directory)], 2, directory, []),
        ("phantom-config", ["phantom", "--out", str(out), "--config", str(root / "prob.yaml")], 2, prob, []),
        ("phantom-count", ["phantom", "--count", "0", "--out", str(out)], 2, "--count", []),
        ("phantom-seed", ["phantom", "--seed", "-1", "--out", str(out)], 2, "--seed", []),
        ("phantom-gt-under-file", ["phantom", "--count", "2", "--out", str(root / "phantom-out")], 1,
         root / "phantom-out" / "gt", []),
        ("init-config-under-file", ["init-config", "--out", str(blocked)], 1, blocked, []),
    ]


def test_fault_table(runner, tmp_path):
    """Each command's faults exit 1 or 2 on a line naming the fault, write only the healthy cases, leave no part file."""
    rows = fault_rows(tmp_path)
    inputs = set(tmp_path.rglob("*"))
    assert {argv[0] for _, argv, *_ in rows} == set(main.commands)
    for row, argv, code, named, outputs in rows:
        result = runner.invoke(main, argv, catch_exceptions=False)
        assert result.exit_code == code, f"{row}: exit {result.exit_code}: {result.stderr}"
        lines = [line for line in result.stderr.splitlines() if str(named) in line]
        assert lines and all(line.startswith(("error: ", "Error: ")) for line in lines), f"{row}: {result.stderr}"
        assert "Traceback" not in result.output + result.stderr, row
        assert part_files(tmp_path) == [], row
        made = sorted(set(tmp_path.rglob("*")) - inputs, reverse=True)  # a directory after its entries
        assert sorted(p for p in made if p.is_file()) == sorted(outputs), row
        assert (tmp_path / "blocker").read_text() == "kept", row
        for path in made:
            path.unlink() if path.is_file() else path.rmdir()


REPORT_HEADER = (
    "case_id,"
    "wt_mean_confidence,wt_fallback_used,wt_core_substituted,wt_failsafe_triggered,wt_final_threshold,"
    "tc_mean_confidence,tc_fallback_used,tc_core_substituted,tc_failsafe_triggered,tc_final_threshold,"
    "et_mean_confidence,et_fallback_used,et_core_substituted,et_failsafe_triggered,et_final_threshold"
)
METRICS_HEADER = "case_id,dice_et,dice_wt,dice_tc,hd95_et,hd95_wt,hd95_tc"
RESULTS_HEADER = (
    METRICS_HEADER + ","
    "dice_auc_et,dice_auc_wt,dice_auc_tc,ftp_auc_et,ftp_auc_wt,ftp_auc_tc,ftn_auc_et,ftn_auc_wt,ftn_auc_tc"
)


class TestPipeline:
    def test_diffuse_phantom_falls_back_after_fusion(self, runner, tmp_path):
        cases = tmp_path / "cases"
        invoke(runner, ["phantom", "--preset", "diffuse-lgg-like", "--seed", "21", "--out", str(cases)])
        invoke(runner, ["ensemble", "--pred", str(cases / "phantom-0021"), "--out", str(tmp_path / "fused")])
        pred = tmp_path / "pred"
        args = ["refine", "--out-labels", str(pred / "phantom-0021.nii.gz"),
                "--out-report", str(tmp_path / "report.csv")]
        for region in ("wt", "tc", "et"):
            args += [f"--prob-{region}", str(tmp_path / "fused" / f"{region}_prob.nii.gz")]
        invoke(runner, args)
        report = read_case_table(tmp_path / "report.csv")[0]
        assert report["wt_fallback_used"] == "true" and report["tc_fallback_used"] == "true"
        invoke(runner, ["evaluate", "--pred-dir", str(pred), "--gt-dir", str(cases / "gt"),
                        "--out-csv", str(tmp_path / "results.csv")])
        row = read_case_table(tmp_path / "results.csv")[0]
        assert float(row["dice_wt"]) > 0.95 and float(row["dice_tc"]) > 0.95

    def test_file_headers_are_pinned(self, runner, tmp_path):
        """The headers of the written tables; a new record field changes them on purpose only."""
        results = run_pipeline(runner, tmp_path, count=1)
        meta = tmp_path / "meta.csv"
        meta.write_text("case_id,age\nphantom-0003,60\n")
        features = tmp_path / "features.csv"
        invoke(runner, ["features", "--labels-dir", str(tmp_path / "pred"), "--meta-csv", str(meta),
                        "--out-csv", str(features)])
        header = lambda path: path.read_text().splitlines()[0]
        assert header(results) == RESULTS_HEADER
        assert len(RESULTS_HEADER.split(",")) == 16
        assert header(tmp_path / "phantom-0003_report.csv") == REPORT_HEADER
        assert len(REPORT_HEADER.split(",")) == 16
        assert header(features) == "case_id,age,n_tumors,n_cores,survival_days"
        evaluate = ["evaluate", "--pred-dir", str(tmp_path / "pred")]
        no_cert = tmp_path / "no-cert.csv"
        invoke(runner, [*evaluate, "--gt-dir", str(tmp_path / "cases" / "gt"), "--out-csv", str(no_cert)])
        assert header(no_cert) == METRICS_HEADER
        assert len(METRICS_HEADER.split(",")) == 7
        small_gt = tmp_path / "small-gt"  # every case fails on the grid: no row fills a column
        write_nifti(Volume3D(np.zeros((2, 2, 2))), small_gt / "phantom-0003.nii.gz", dtype="uint8")
        failed = tmp_path / "failed.csv"
        invoke(runner, [*evaluate, "--gt-dir", str(small_gt), "--out-csv", str(failed)], expect=1)
        assert failed.read_text().splitlines() == ["case_id"]

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

    def test_case_with_two_label_maps_is_usage_error(self, runner, tmp_path):
        pred = tmp_path / "pred"
        for name in ("c0.nii.gz", "c1.nii", "c1.nii.gz"):
            write_nifti(Volume3D(np.zeros((3, 3, 3))), pred / name, dtype="uint8")
        out = tmp_path / "r.csv"
        result = invoke(runner, ["evaluate", "--pred-dir", str(pred), "--gt-dir", str(pred),
                                 "--out-csv", str(out)], expect=2)
        assert result.stderr.splitlines()[-1] == (
            f"Error: evaluate: case 'c1' has two label maps: {pred / 'c1.nii'}, {pred / 'c1.nii.gz'}")
        assert not out.exists()

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
NODE_SHAPES = "tree 0: each node must be a [short, mid, long] leaf or a forest.splits index"
SPLIT_SHAPE = "each forest.splits entry must be a [feature, threshold] pair"


def split_node(doc):
    """The ``forest.splits`` entry, ``[feature, threshold]``, of the first split node of a model JSON document."""
    return doc["forest"]["splits"][next(node for nodes in doc["forest"]["trees"] for node in nodes
                                        if type(node) is int)]


def leaf_node(doc):
    """The first ``[short, mid, long]`` node of a model JSON document."""
    return next(node for node in doc["forest"]["trees"][0] if isinstance(node, list))


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
        rows = read_case_table(preds, ("case_id", "predicted_days"))
        assert len(rows) == 30
        assert all(0.0 <= float(row["predicted_days"]) <= 1000.0 for row in rows)

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
        args = ["survival-cv", "--features-csv", str(features), "--folds", "3", "--seed", "1", "--config", str(config)]
        lines = invoke(runner, args).output.splitlines()
        assert lines[0] == "fold,fused_accuracy,ols_accuracy" and len(lines) == 5
        invoke(runner, [*args, "--out-csv", str(tmp_path / "cv.csv")])  # the same rows, CSV line ends
        assert (tmp_path / "cv.csv").read_bytes() == "".join(line + "\r\n" for line in lines).encode()

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

    @pytest.mark.parametrize("setting, message", [
        ("refine:\n  enforce_nesting: 'false'", "enforce_nesting must be a boolean, got 'false'"),
        ("refine:\n  min_component_size: abc", "min_component_size must be an integer, got 'abc'"),
        ("uncertainty:\n  thresholds: 5", "thresholds must be a list of numbers, got 5"),
        ("phantom:\n  dims: 48", "dims must be a list of integers, got 48"),
        ("phantom:\n  dims: [40, 40]", "dims must be three positive integers, got [40, 40]"),
        ("survival:\n  short_max_days: 500\n  long_min_days: 100",
         "short_max_days 500.0 must not exceed long_min_days 100.0"),
        ("phantom:\n  preset: bogus", "unknown phantom preset 'bogus'; choose from ['diffuse-lgg-like', 'hgg-like']"),
        ("phantom:\n  dims: [20, 20, 20]", "wt sphere (center (10.059694294683837, 9.030866988847567, "
         "9.617958807010778), radius 15.278552460746191) exceeds volume bounds (20, 20, 20)"),
        ("survival:\n  cap_days: .inf", "cap_days must be a number, got inf"),
    ])
    def test_mistyped_config_value_is_usage_error(self, runner, tmp_path, setting, message):
        config = tmp_path / "conf.yaml"
        config.write_text(setting + "\n")
        result = invoke(runner, ["phantom", "--out", str(tmp_path / "cases"), "--config", str(config)], expect=2)
        assert f"bad configuration: {message}" in result.stderr
        assert "Traceback" not in result.stderr
        assert not (tmp_path / "cases").exists()

    @pytest.mark.parametrize("command", ["refine", "evaluate", "features", "survival-train", "survival-cv",
                                         "phantom"])
    def test_bad_preset_refused_by_every_config_reader(self, runner, tmp_path, command):
        config = tmp_path / "conf.yaml"
        config.write_text("phantom:\n  preset: bogus\n")
        d, f, out = tmp_path / "d", tmp_path / "f.csv", tmp_path / "out"
        d.mkdir()
        f.write_text("case_id,age\n")
        args = {
            "refine": ["--prob-wt", str(f), "--prob-tc", str(f), "--prob-et", str(f), "--out-labels", str(out)],
            "evaluate": ["--pred-dir", str(d), "--gt-dir", str(d), "--out-csv", str(out)],
            "features": ["--labels-dir", str(d), "--meta-csv", str(f), "--out-csv", str(out)],
            "survival-train": ["--features-csv", str(f), "--model-out", str(out)],
            "survival-cv": ["--features-csv", str(f), "--out-csv", str(out)],
            "phantom": ["--out", str(out)],
        }[command]
        result = invoke(runner, [command, *args, "--config", str(config)], expect=2)
        assert "bad configuration: unknown phantom preset 'bogus'" in result.stderr
        assert "Traceback" not in result.stderr
        assert not out.exists()

    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda d: d.update(version=1), "format version 1 is not 4; retrain the model"),
            (lambda d: d.update(version=2), "format version 2 is not 4; retrain the model"),
            (lambda d: d.update(version=3), "format version 3 is not 4; retrain the model"),
            (lambda d: split_node(d).pop(), SPLIT_SHAPE),
            (lambda d: leaf_node(d).append(1), NODE_SHAPES),
            (lambda d: d["forest"]["trees"][0].pop(), "tree 0 ends before its last leaf"),
            (lambda d: d["forest"]["trees"][0].append([1, 0, 0]), "tree 0 has nodes after its last leaf"),
            (lambda d: d["forest"].update(max_depth=0), "tree 0 reaches depth 1, deeper than max_depth 0"),
            (lambda d: split_node(d).__setitem__(0, 3), "split feature 3 is outside a set of 3"),
            (lambda d: leaf_node(d).__setitem__(0, -1), "leaf counts must be >= 0"),
            (lambda d: leaf_node(d).__setitem__(slice(None), [0, 0, 0]),
             "leaf counts must be >= 0 with at least one record per leaf"),
            (lambda d: leaf_node(d).__setitem__(0, True), ROW_TYPES),
            (lambda d: split_node(d).__setitem__(1, float("nan")), ROW_TYPES),
            (lambda d: d["forest"]["trees"][0].__setitem__(0, len(d["forest"]["splits"])), NODE_SHAPES),
            (lambda d: d["forest"]["trees"][0].__setitem__(0, False), NODE_SHAPES),
            (lambda d: d["forest"]["trees"][0].__setitem__(0, split_node(d)), NODE_SHAPES),
        ],
        ids=["version-1", "version-2", "version-3", "ragged-splits", "ragged-counts", "tree-ends-early", "nodes-after-last-leaf",
             "deeper-than-max-depth", "feature-outside", "negative-count", "empty-leaf", "boolean-count",
             "nan-threshold", "index-past-the-table", "boolean-node", "feature-threshold-node"],
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

    @pytest.mark.parametrize("command", ["survival-train", "survival-predict", "survival-cv"])
    def test_case_listed_twice_is_usage_error(self, runner, tmp_path, command):
        model = tmp_path / "model.json"
        write_cohort_csv(tmp_path / "cohort.csv", n=12)
        invoke(runner, ["survival-train", "--features-csv", str(tmp_path / "cohort.csv"),
                        "--model-out", str(model)])
        features = tmp_path / "features.csv"  # 13 rows: c0 at ages 40 and 99
        rows = [f"c{i},{40 + i},1,1,{200 + 50 * i}" for i in range(12)] + ["c0,99,2,1,300"]
        features.write_text("case_id,age,n_tumors,n_cores,survival_days\n" + "\n".join(rows) + "\n")
        out = tmp_path / "out"
        args = {"survival-train": ["--model-out", str(out)],
                "survival-predict": ["--model", str(model), "--out-csv", str(out)],
                "survival-cv": ["--folds", "3", "--out-csv", str(out)]}[command]
        result = invoke(runner, [command, "--features-csv", str(features), *args], expect=2)
        assert f"{features}: case 'c0' is listed more than once" in result.stderr
        assert "Traceback" not in result.stderr
        assert not out.exists()

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


    def test_bad_age_names_meta_file_and_column(self, runner, tmp_path):
        labels_dir = tmp_path / "labels"
        write_nifti(Volume3D(np.zeros((3, 3, 3))), labels_dir / "phantom-0001.nii.gz", dtype="uint8")
        meta = tmp_path / "meta.csv"
        meta.write_text("case_id,age\nphantom-0001,abc\n")
        out = tmp_path / "features.csv"
        result = invoke(runner, ["features", "--labels-dir", str(labels_dir),
                                 "--meta-csv", str(meta), "--out-csv", str(out)], expect=1)
        assert f"error: phantom-0001: {meta}: case 'phantom-0001': bad age 'abc'" in result.stderr
        assert read_survival_table(out) == []
        result = invoke(runner, ["survival-cv", "--features-csv", str(out)], expect=2)
        assert "0 records are too few for 5 folds" in result.stderr

    def test_case_listed_twice_is_usage_error(self, runner, tmp_path):
        labels_dir = tmp_path / "labels"
        write_nifti(Volume3D(np.zeros((3, 3, 3))), labels_dir / "phantom-0001.nii.gz", dtype="uint8")
        meta = tmp_path / "meta.csv"
        meta.write_text("case_id,age\nphantom-0001,61\nphantom-0001,62\n")
        out = tmp_path / "features.csv"
        result = invoke(runner, ["features", "--labels-dir", str(labels_dir),
                                 "--meta-csv", str(meta), "--out-csv", str(out)], expect=2)
        assert f"{meta}: case 'phantom-0001' is listed more than once" in result.stderr
        assert "Traceback" not in result.stderr
        assert not out.exists()


def fresh_env():
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    env.pop("UQSEG_CONFIG", None)
    return env


def test_cli_import_skips_scipy_stats():
    """Neither the package nor the CLI loads scipy, PyYAML or the library lookup on import."""
    code = ("import sys\n"
            "loaded = lambda: sorted(m for m in sys.modules\n"
            "                        if m.split('.')[0] in ('scipy', 'yaml') or m in ('ctypes.util', 'subprocess'))\n"
            "import uqseg\nprint(loaded())\nimport uqseg.cli\nprint(loaded())")
    out = subprocess.run([sys.executable, "-c", code], env=fresh_env(), capture_output=True,
                         text=True, check=True, timeout=120)
    assert out.stdout.splitlines() == ["[]", "[]"]


def test_module_import_loads_only_what_it_uses():
    """The package root re-exports nothing: a module loads only its own imports, and the CLI skips losses."""
    code = ("import sys\nimport uqseg.nifti\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'uqseg'))\n"
            "import uqseg.cli\nprint('uqseg.losses' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", code], env=fresh_env(), capture_output=True,
                         text=True, check=True, timeout=120)
    assert out.stdout.splitlines() == ["['uqseg', 'uqseg.atomic', 'uqseg.nifti', 'uqseg.volumes']", "False"]


# Runs ``uqseg <argv>`` and reports, at exit, the top-level scipy/yaml packages it loaded.
FRESH_RUN = """
import atexit, sys
atexit.register(lambda: print("loaded:", sorted({m.split('.')[0] for m in sys.modules} & {'scipy', 'yaml'}),
                              file=sys.stderr))
from uqseg.cli import main
main(sys.argv[1:], prog_name="uqseg")
"""


def test_scipy_free_commands_load_neither_scipy_nor_yaml(runner, tmp_path):
    invoke(runner, ["phantom", "--seed", "1", "--out", str(tmp_path / "cases")])
    case = tmp_path / "cases" / "phantom-0001"
    features = tmp_path / "features.csv"
    write_cohort_csv(features, n=9)
    model = tmp_path / "model.json"
    survival = ["--features-csv", str(features)]
    commands = [
        ["ensemble", "--pred", str(case), "--out", str(tmp_path / "fused")],
        ["uncertainty", "--formula", "flip", "--q", str(case / "wt_q.nii.gz"), "--out", str(tmp_path / "c.nii.gz")],
        ["standardize", "--in", str(case / "wt_p.nii.gz"), "--out", str(tmp_path / "s.nii.gz")],
        ["survival-train", *survival, "--model-out", str(model)],
        ["survival-predict", *survival, "--model", str(model), "--out-csv", str(tmp_path / "p.csv")],
        ["survival-cv", *survival, "--folds", "3"],
        ["--help"],
    ]
    for argv in commands:
        out = subprocess.run([sys.executable, "-c", FRESH_RUN, *argv], env=fresh_env(),
                             capture_output=True, text=True, timeout=120)
        assert out.returncode == 0, out.stderr
        assert out.stderr.splitlines()[-1] == "loaded: []", argv


class TestInitConfig:
    def test_written_config_loads(self, runner, tmp_path):
        path = tmp_path / "conf.yaml"
        invoke(runner, ["init-config", "--out", str(path)])
        invoke(runner, ["survival-cv", "--help"])  # sanity: CLI intact
        text = path.read_text()
        assert "base_threshold: 0.5" in text
        assert "fallback_threshold: 0.05" in text
        assert "n_trees: 1000" in text
