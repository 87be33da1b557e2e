"""Acceptance suite: one test per exit criterion.

Each test prints a PASS line once its criterion holds (visible with -s or in
captured output). Tolerances are pinned here and nowhere else.
"""
import time
import warnings

import numpy as np
import pytest
from click.testing import CliRunner
from scipy import ndimage

import oracles
from uqseg.cli import main as cli_main
from uqseg.ensemble import fuse_single
from uqseg.losses import (
    EPS,
    KlVariant,
    LossConfig,
    LossInputs,
    bce,
    combined_loss_2020,
    focal,
    focal_kl,
    kl,
    label_flip_loss_2019,
)
from uqseg.metrics import dice, hausdorff95
from uqseg.phantom import (
    PhantomSpec,
    SphereSpec,
    diffuse_lgg_like_spec,
    generate_phantom,
    hgg_like_spec,
)
from uqseg.refine import (
    RefinementConfig,
    RegionLabel,
    refine_segmentation,
    threshold_mask,
)
from uqseg.survival import (
    FusionModel,
    OlsModel,
    SurvivalRecord,
    ForestModel,
    cross_validate,
    evaluate_survival,
    fit_fusion,
    fit_ols,
    model_to_json,
    predict_fused,
)
from uqseg.uncertainty import (
    certainty_from_q,
    evaluate_uncertainty,
    negative_only_uncertainty_raw,
    symmetric_uncertainty_raw,
)
from uqseg.volumes import (
    Connectivity,
    DegenerateVolumeWarning,
    Mask3D,
    Volume3D,
    count_components,
    remove_small_components,
)

FD_STEP = 1e-5
GRAD_REL_TOL = 1e-4


def report(name):
    print(f"PASS: {name}")


# --------------------------------------------------------------------------
# Criterion 1: loss gradient suite, >=1000 tuples, < 10 s
# --------------------------------------------------------------------------


def test_loss_gradient_suite():
    start = time.perf_counter()
    rng = np.random.default_rng(2024)
    n = 1200
    p = rng.uniform(0.01, 0.99, n)
    p = np.where(np.abs(p - 0.5) < 2e-3, p + 4e-3, p)
    q = rng.uniform(0.005, 0.49, n)
    x = rng.integers(0, 2, n).astype(float)
    gamma = rng.uniform(0.0, 4.0, n)
    lam = rng.uniform(0.0, 1.0, n)
    w = (1 - x) * q + x * (1 - q)

    def check(analytic, value_fn):
        numeric = (value_fn(FD_STEP) - value_fn(-FD_STEP)) / (2 * FD_STEP)
        rel = np.abs(analytic - numeric) / np.maximum(np.abs(numeric), 1e-6)
        assert np.max(rel) < GRAD_REL_TOL

    # scalar losses: d/dp
    check(focal(p, w, 2.0)[1], lambda h: focal(p + h, w, 2.0)[0])
    check(bce(p, x)[1], lambda h: bce(p + h, x)[0])
    for variant in KlVariant:
        check(kl(w, p, variant)[1], lambda h: kl(w, p + h, variant)[0])
        check(focal_kl(w, p, variant)[1], lambda h: focal_kl(w, p + h, variant)[0])

    # composite losses: d/dp and d/dq, per-tuple configs
    for variant in KlVariant:
        for op in (label_flip_loss_2019, combined_loss_2020):
            for i in range(n):
                cfg = LossConfig(gamma=gamma[i], lam=lam[i], kl_variant=variant)
                _, d_dp, d_dq = op(LossInputs(p=p[i], q=q[i], x=x[i]), cfg)
                check(d_dp, lambda h, i=i, cfg=cfg, op=op: op(
                    LossInputs(p=p[i] + h, q=q[i], x=x[i]), cfg)[0])
                check(d_dq, lambda h, i=i, cfg=cfg, op=op: op(
                    LossInputs(p=p[i], q=q[i] + h, x=x[i]), cfg)[0])

    elapsed = time.perf_counter() - start
    assert elapsed < 10.0, f"gradient suite took {elapsed:.1f}s"
    report(f"loss gradients match finite differences on {n} tuples in {elapsed:.1f}s")


# --------------------------------------------------------------------------
# Criterion 2: focal-KL fixed points
# --------------------------------------------------------------------------


def test_focal_kl_fixed_points():
    rng = np.random.default_rng(7)
    w = rng.uniform(0.01, 0.99, 100)
    for variant in KlVariant:
        values, _ = focal_kl(w, w, variant)
        assert np.max(np.abs(values)) < 1e-12
    value, _, _ = combined_loss_2020(LossInputs(p=1.0 - EPS, q=EPS, x=1.0))
    assert abs(value) < 1e-5
    report("focal_kl(w, w) = 0 on 100 points; combined loss vanishes when confident and correct")


# --------------------------------------------------------------------------
# Criterion 3: ensemble anchor
# --------------------------------------------------------------------------


def test_ensemble_anchor():
    fused = fuse_single(np.array([0.0, 1.0]), np.array([0.0, 0.0]))
    assert fused[0] == 0.0 and fused[1] == 1.0
    assert fused.mean() == 0.5
    report("two confident disagreeing models fuse to exactly 0.5")


# --------------------------------------------------------------------------
# Criterion 4: refinement behavior split on 50 + 50 phantoms
# --------------------------------------------------------------------------


def test_refinement_behavior_split():
    cfg = RefinementConfig()

    def tc_outcome(case):
        seg, rep = refine_segmentation(
            case.p[RegionLabel.WHOLE_TUMOR],
            case.p[RegionLabel.TUMOR_CORE],
            case.p[RegionLabel.ENHANCING_TUMOR],
            cfg,
        )
        base = remove_small_components(
            threshold_mask(case.p[RegionLabel.TUMOR_CORE], cfg.base_threshold),
            cfg.min_component_size,
            cfg.connectivity,
        )
        return (
            rep.regions[RegionLabel.TUMOR_CORE].fallback_used,
            dice(base, case.gt.tc),
            dice(seg.tc, case.gt.tc),
        )

    hgg_fired = 0
    for seed in range(50):
        fired, _, _ = tc_outcome(generate_phantom(hgg_like_spec(seed)))
        hgg_fired += fired
    assert hgg_fired == 0, f"TC fallback fired on {hgg_fired}/50 confident phantoms"

    lgg_fired = 0
    improved = 0
    for seed in range(50):
        fired, base_dice, refined_dice = tc_outcome(generate_phantom(diffuse_lgg_like_spec(seed)))
        lgg_fired += fired
        improved += refined_dice > base_dice
    assert lgg_fired == 50, f"TC fallback fired on only {lgg_fired}/50 diffuse phantoms"
    assert improved >= 48, f"fallback beat base-threshold Dice in only {improved}/50 cases"
    report(
        f"TC fallback: 0/50 confident, {lgg_fired}/50 diffuse, Dice improved in {improved}/50"
    )


# --------------------------------------------------------------------------
# Criterion 5: pipeline guarantees on a 200-case fuzz set
# --------------------------------------------------------------------------


def fuzz_case(i):
    """Mixed fuzz distribution over smooth probability fields.

    Presets, random nested spheres, constant fields (including all-zero), and
    smooth sub-detection blobs that force the failsafe.
    """
    rng = np.random.default_rng([i, 99])
    kind = i % 5
    if kind == 0:
        case = generate_phantom(hgg_like_spec(i))
        return [case.p[r] for r in RegionLabel]
    if kind == 1:
        case = generate_phantom(diffuse_lgg_like_spec(i))
        return [case.p[r] for r in RegionLabel]
    if kind == 2:
        dims = (32, 32, 32)
        center = tuple(16.0 + rng.uniform(-1.0, 1.0) for _ in range(3))
        r_wt = rng.uniform(6.0, 12.0)
        r_tc = rng.uniform(0.0, max(r_wt - 2.0, 0.0))
        r_et = rng.uniform(0.0, max(r_tc - 2.0, 0.0))
        spec = PhantomSpec(
            dims=dims,
            regions={
                RegionLabel.WHOLE_TUMOR: SphereSpec(
                    center, r_wt, rng.uniform(0.06, 1.0), falloff=rng.uniform(0.0, 6.0)
                ),
                RegionLabel.TUMOR_CORE: SphereSpec(
                    center, r_tc, rng.uniform(0.0, 1.0), falloff=rng.uniform(0.0, 6.0)
                ),
                RegionLabel.ENHANCING_TUMOR: SphereSpec(
                    center, r_et, rng.uniform(0.0, 1.0), falloff=rng.uniform(0.0, 4.0)
                ),
            },
            noise_sigma=0.0,
            seed=i,
        )
        case = generate_phantom(spec)
        return [case.p[r] for r in RegionLabel]
    if kind == 3:
        dims = (32, 32, 32)
        levels = rng.choice([0.0, 0.02, 0.3, 0.6], size=3)
        return [Volume3D(np.full(dims, level)) for level in levels]
    dims = (32, 32, 32)
    grid = np.indices(dims, dtype=float)
    r = np.sqrt(((grid - 16.0) ** 2).sum(axis=0))
    amplitude = rng.uniform(0.005, 0.045)
    width = rng.uniform(4.0, 10.0)
    blob = amplitude * np.exp(-((r / width) ** 2))
    return [Volume3D(blob), Volume3D(np.zeros(dims)), Volume3D(np.zeros(dims))]


def test_pipeline_guarantees_fuzz():
    cfg = RefinementConfig()
    failsafes = 0
    for i in range(200):
        p_wt, p_tc, p_et = fuzz_case(i)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            seg, rep = refine_segmentation(p_wt, p_tc, p_et, cfg)
        wt_rep = rep.regions[RegionLabel.WHOLE_TUMOR]
        zero_cut = wt_rep.failsafe_triggered and wt_rep.final_threshold == 0.0
        assert [w.category for w in caught] == [DegenerateVolumeWarning] * zero_cut, f"case {i}"
        assert seg.wt.data.sum() > 0, f"case {i}: empty WT"
        assert seg.tc.data.sum() > 0, f"case {i}: empty TC"
        total = int(np.prod(p_wt.dims))
        if wt_rep.failsafe_triggered:
            failsafes += 1
            assert seg.wt.data.sum() >= min(cfg.failsafe_min_voxels, total), f"case {i}"
        for mask in (seg.wt, seg.tc, seg.et):
            labels, n = ndimage.label(mask.data, structure=cfg.connectivity.structure())
            if n:
                smallest = int(np.bincount(labels.ravel())[1:].min())
                assert smallest >= cfg.min_component_size, (
                    f"case {i}: component of {smallest} voxels in output"
                )
    assert failsafes > 0, "fuzz set never exercised the failsafe"
    report(
        f"200-case fuzz: WT/TC always non-empty, failsafe floor held "
        f"({failsafes} failsafe cases), no sub-10-voxel components"
    )


# --------------------------------------------------------------------------
# Criterion 6: metric oracles
# --------------------------------------------------------------------------


def test_metric_oracles():
    rng = np.random.default_rng(42)
    checked = 0
    while checked < 100:
        a = rng.random((8, 8, 8)) < 0.35
        b = rng.random((8, 8, 8)) < 0.35
        if not a.any() or not b.any():
            continue
        assert dice(Mask3D(a), Mask3D(b)) == oracles.brute_dice(a, b)
        got = hausdorff95(Mask3D(a), Mask3D(b))
        assert abs(got - oracles.brute_hd95(a, b)) <= 1e-9
        checked += 1

    offsets = {
        Connectivity.FACE6: oracles.FACE6,
        Connectivity.EDGE18: oracles.EDGE18,
        Connectivity.CORNER26: oracles.CORNER26,
    }
    for connectivity, offs in offsets.items():
        rng = np.random.default_rng(connectivity.value)
        for _ in range(200):
            mask = rng.random((8, 8, 8)) < 0.4
            want_labels, want_sizes = oracles.flood_fill_labels(mask, offs)
            assert count_components(Mask3D(mask), connectivity) == len(want_sizes)
            keep = np.concatenate(([False], want_sizes >= 10))
            got = remove_small_components(Mask3D(mask), 10, connectivity)
            np.testing.assert_array_equal(got.data, keep[want_labels])
    report("Dice exact and HD95 within 1e-9 of brute force on 100 pairs; "
           "component counts and the 10-voxel filter match flood fill "
           "on 200 masks per connectivity")


# --------------------------------------------------------------------------
# Criterion 7: uncertainty formulas and the 3-voxel filtered-Dice case
# --------------------------------------------------------------------------


def test_uncertainty_formulas():
    def single(fn, value):
        return float(fn(Volume3D(np.full((1, 1, 1), value))).data[0, 0, 0])

    # hand values (exact up to float64 representation of the inputs);
    # the rounded challenge integers are exact
    for fn, arg, want in (
        (certainty_from_q, 0.1, 80.0),
        (symmetric_uncertainty_raw, 0.9, 20.0),
        (negative_only_uncertainty_raw, 0.2, 60.0),
    ):
        got = single(fn, arg)
        assert got == pytest.approx(want, abs=1e-9)
        assert round(got) == want

    seg = Mask3D(np.array([True, True, False]).reshape(3, 1, 1))
    gt = Mask3D(np.array([True, False, False]).reshape(3, 1, 1))
    cert = Volume3D(np.array([90.0, 30.0, 90.0]).reshape(3, 1, 1))
    curve = evaluate_uncertainty(seg, gt, cert, thresholds=(0.0, 50.0))
    assert curve.dice_at[0] == pytest.approx(2.0 / 3.0)
    assert curve.dice_at[1] == 1.0
    report("q=0.1 -> 80, x=0.9 -> 20, x=0.2 -> 60; 3-voxel Dice rises 2/3 -> 1 at tau=50")


# --------------------------------------------------------------------------
# Criterion 8: survival suite
# --------------------------------------------------------------------------


def synthetic_cohort(n=90, seed=17):
    """Short survivors are marked by high tumor counts; age only separates
    mid from long, so the fused forest override beats age-only OLS."""
    rng = np.random.default_rng(seed)
    records = []
    for i in range(n):
        cls = i % 3
        if cls == 0:
            days = rng.uniform(60.0, 280.0)
            age = rng.uniform(45.0, 75.0)
            tumors, cores = int(rng.integers(3, 6)), int(rng.integers(2, 5))
        elif cls == 1:
            days = rng.uniform(310.0, 440.0)
            age = rng.uniform(62.0, 75.0)
            tumors, cores = 1, 1
        else:
            days = rng.uniform(470.0, 950.0)
            age = rng.uniform(45.0, 58.0)
            tumors, cores = 1, 1
        records.append(
            SurvivalRecord(f"case-{i:03d}", age, tumors, cores, survival_days=days)
        )
    return records


def test_survival_suite():
    # planted linear model, no capping (ages >= 50 keep targets <= 1000)
    rng = np.random.default_rng(3)
    planted = [
        SurvivalRecord(f"p{i}", age, 1, 1, survival_days=2000.0 - 20.0 * age)
        for i, age in enumerate(rng.uniform(50.0, 90.0, 40))
    ]
    model = fit_ols(planted, feature_set=("age",))
    assert model.coefficients[0] == pytest.approx(2000.0, rel=1e-6)
    assert model.coefficients[1] == pytest.approx(-20.0, rel=1e-6)

    # 1500-day survival enters the fit capped at 1000
    capped = fit_ols(
        [SurvivalRecord("a", 50.0, 1, 1, 1500.0), SurvivalRecord("b", 70.0, 1, 1, 900.0)],
        feature_set=("age",),
    )
    assert capped.predict(SurvivalRecord("x", 50.0, 1, 1)) == pytest.approx(1000.0)

    # seed-determinism: bit-identical serialized models
    cohort = synthetic_cohort()
    json_a = model_to_json(fit_fusion(cohort, seed=5, n_trees=80))
    json_b = model_to_json(fit_fusion(cohort, seed=5, n_trees=80))
    assert json_a == json_b

    # the three worked fusion examples
    def leaf_forest(counts):
        return ForestModel(feature_set=("age",), max_depth=3, feature=np.zeros((1, 0), dtype=np.int64),
                           threshold=np.zeros((1, 0)), counts=np.array([[counts]]))

    def ols_const(v):
        return OlsModel(feature_set=(), coefficients=np.array([float(v)]))

    probe = SurvivalRecord("x", 60.0, 1, 1)
    assert predict_fused(
        FusionModel(ols=ols_const(400.0), forest=leaf_forest((6, 3, 1))), probe
    ) == 299.0
    assert predict_fused(
        FusionModel(ols=ols_const(200.0), forest=leaf_forest((18, 1, 1))), probe
    ) == 200.0
    assert predict_fused(
        FusionModel(ols=ols_const(400.0), forest=leaf_forest((3, 8, 9))), probe
    ) == 400.0

    # perfect predictions
    perfect = evaluate_survival([(100.0, 100.0), (400.0, 400.0), (800.0, 800.0)])
    assert perfect["accuracy"] == 1.0
    assert perfect["spearman_r"] == pytest.approx(1.0)

    # fused model beats age-only OLS by >= 5 accuracy points in 5-fold CV
    def fused_fitter(train):
        m = fit_fusion(train, seed=11)
        return lambda r: predict_fused(m, r)

    def ols_fitter(train):
        m = fit_ols(train, feature_set=("age",))
        return lambda r: min(max(m.predict(r), 0.0), 1000.0)

    fused_acc = float(np.mean(cross_validate(cohort, fused_fitter, folds=5, seed=11)))
    ols_acc = float(np.mean(cross_validate(cohort, ols_fitter, folds=5, seed=11)))
    assert fused_acc >= ols_acc + 0.05, (
        f"fused CV accuracy {fused_acc:.3f} vs OLS {ols_acc:.3f}"
    )
    report(
        "OLS recovery 1e-6, capping 1500->1000, bit-identical forests, fusion rule, "
        f"CV gain {fused_acc - ols_acc:+.2f} (fused {fused_acc:.2f} vs OLS {ols_acc:.2f})"
    )


# --------------------------------------------------------------------------
# Criterion 9: CLI determinism, all subcommands, parallelism included
# --------------------------------------------------------------------------


def drive_cli(root, jobs):
    """Exercise every subcommand with fixed seeds; outputs land under root."""
    runner = CliRunner()

    def run(args):
        result = runner.invoke(cli_main, args, catch_exceptions=False)
        assert result.exit_code == 0, f"{args}: {result.output}\n{result.stderr}"

    config = root / "config.yaml"
    run(["init-config", "--out", str(config)])
    config.write_text(config.read_text().replace("n_trees: 1000", "n_trees: 120"))

    cases = root / "cases"
    run(["phantom", "--preset", "hgg-like", "--seed", "5", "--count", "2",
         "--out", str(cases), "--config", str(config)])
    run(["phantom", "--preset", "diffuse-lgg-like", "--seed", "21", "--count", "1",
         "--out", str(cases), "--config", str(config)])

    run(["standardize", "--in", str(cases / "phantom-0005" / "wt_p.nii.gz"),
         "--out", str(root / "standardized.nii.gz")])

    # each phantom case directory is a prediction-pair directory
    run(["ensemble", "--pred", str(cases / "phantom-0005"), "--pred", str(cases / "phantom-0006"),
         "--flips", "X,Y", "--out", str(root / "fused")])

    pred = root / "pred"
    cert = root / "cert"
    pred.mkdir()
    cert.mkdir()
    for case in ("phantom-0005", "phantom-0006", "phantom-0021"):
        run(["refine",
             "--prob-wt", str(cases / case / "wt_p.nii.gz"),
             "--prob-tc", str(cases / case / "tc_p.nii.gz"),
             "--prob-et", str(cases / case / "et_p.nii.gz"),
             "--config", str(config),
             "--out-labels", str(pred / f"{case}.nii.gz"),
             "--out-report", str(root / f"{case}_report.csv")])
        for region, challenge in (("wt", "whole"), ("tc", "core"), ("et", "enhance")):
            run(["uncertainty", "--formula", "flip",
                 "--q", str(cases / case / f"{region}_q.nii.gz"),
                 "--out", str(cert / f"{case}_unc_{challenge}.nii.gz")])
    run(["uncertainty", "--formula", "symmetric",
         "--prob", str(cases / "phantom-0005" / "wt_p.nii.gz"),
         "--out", str(root / "sym.nii.gz")])
    run(["uncertainty", "--formula", "negative-only", "--raw",
         "--prob", str(cases / "phantom-0005" / "wt_p.nii.gz"),
         "--out", str(root / "negraw.nii.gz")])

    run(["evaluate", "--pred-dir", str(pred), "--gt-dir", str(cases / "gt"),
         "--cert-dir", str(cert), "--out-csv", str(root / "results.csv"),
         "--jobs", str(jobs), "--config", str(config)])

    meta = root / "meta.csv"
    meta.write_text(
        "case_id,age,survival_days\n"
        "phantom-0005,61.0,250\nphantom-0006,55.5,400\nphantom-0021,70.2,600\n"
    )
    run(["features", "--labels-dir", str(pred), "--meta-csv", str(meta),
         "--out-csv", str(root / "features.csv"), "--config", str(config)])

    cohort = root / "cohort.csv"
    lines = ["case_id,age,n_tumors,n_cores,survival_days"]
    rng = np.random.default_rng(100)
    for i in range(30):
        cls = i % 3
        days = [rng.uniform(60, 280), rng.uniform(310, 440), rng.uniform(470, 950)][cls]
        tumors = int(rng.integers(3, 6)) if cls == 0 else 1
        lines.append(f"case-{i:03d},{rng.uniform(45, 75):.2f},{tumors},1,{days:.1f}")
    cohort.write_text("\n".join(lines) + "\n")

    run(["survival-train", "--features-csv", str(cohort), "--seed", "9",
         "--model-out", str(root / "model.json"), "--config", str(config)])
    run(["survival-predict", "--model", str(root / "model.json"),
         "--features-csv", str(cohort), "--out-csv", str(root / "predictions.csv")])
    run(["survival-cv", "--features-csv", str(cohort), "--folds", "5", "--seed", "9",
         "--config", str(config), "--out-csv", str(root / "cv.csv")])


def test_cli_determinism(tmp_path):
    a = tmp_path / "run_a"
    b = tmp_path / "run_b"
    a.mkdir()
    b.mkdir()
    drive_cli(a, jobs=1)
    drive_cli(b, jobs=3)  # parallel evaluation must not change any bytes
    files_a = sorted(p.relative_to(a) for p in a.rglob("*") if p.is_file())
    files_b = sorted(p.relative_to(b) for p in b.rglob("*") if p.is_file())
    assert files_a == files_b
    for rel in files_a:
        assert (a / rel).read_bytes() == (b / rel).read_bytes(), f"differs: {rel}"
    assert len(files_a) >= 40
    report(f"all {len(files_a)} CLI outputs byte-identical across reruns (jobs 1 vs 3)")
