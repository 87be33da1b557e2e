"""Batch command-line front end.

Layout, named only by the functions below: prediction-pair directories hold
``{region}_p`` and ``{region}_q`` per region (wt, tc, et), ``phantom`` writes
one per case plus ``gt/{case}``; fused probabilities are ``{region}_prob``;
label maps are ``{case}``; certainty maps are ``{case}_unc_{whole,core,enhance}``.
An input is found as ``.nii.gz`` or ``.nii``; an output a command names is ``.nii.gz``.

Exit codes: 0 success, 1 when a case failed (``error: <name>: <exc>``), 2
configuration or usage error, a missing input file included. Progress and
summaries go to stderr; results go to files.
"""
from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import click
import numpy as np

from .atomic import write_atomic
from .config import PipelineConfig, default_config_yaml, load_config
from .ensemble import PredictionPair, ensemble_with_flips
from .metrics import compare_masks
from .nifti import read_label_volume, read_nifti, write_nifti
from .phantom import PRESETS, generate_phantom
from .refine import (
    REGION_ORDER,
    brats_labels_to_masks,
    masks_to_brats_labels,
    refine_segmentation,
)
from .survival import (
    fit_fusion,
    fit_ols,
    load_model,
    predict_fused,
    save_model,
    cross_validate,
    extract_features,
)
from .tables import (
    AUC_FIELDS,
    METRIC_FIELDS,
    cell,
    read_case_table,
    read_survival_table,
    write_predictions_table,
    write_results_table,
    write_survival_table,
)
from .uncertainty import (
    certainty_from_q,
    certainty_negative_only,
    certainty_symmetric,
    evaluate_uncertainty,
    negative_only_uncertainty_raw,
    symmetric_uncertainty_raw,
)
from .volumes import Axis, require_same_grid, require_within, standardize_nonzero

REGION_KEYS = tuple(region.value for region in REGION_ORDER)
CHALLENGE_NAMES = {"wt": "whole", "tc": "core", "et": "enhance"}

_NIFTI_SUFFIXES = (".nii.gz", ".nii")

# Input paths must exist and be of the named kind; click refuses the wrong kind with exit 2.
_IN_FILE = click.Path(exists=True, dir_okay=False, path_type=Path)
_IN_DIR = click.Path(exists=True, file_okay=False, path_type=Path)


def _config(config_path) -> PipelineConfig:
    try:
        return load_config(config_path)
    except (ValueError, OSError) as exc:
        raise click.UsageError(f"bad configuration: {exc}") from exc


def _case_name(path: Path) -> str:
    for suffix in _NIFTI_SUFFIXES:
        if path.name.endswith(suffix):
            return path.name[: -len(suffix)]
    return path.name


def _nifti_files(directory: Path) -> list[Path]:
    files = sorted(p for p in directory.iterdir() if p.name.endswith(_NIFTI_SUFFIXES))
    if not files:
        raise click.UsageError(f"no NIfTI files in {directory}")
    return files


def _gz_file(directory: Path, stem: str) -> Path:
    return directory / f"{stem}.nii.gz"


def _find_nifti(directory: Path, stem: str) -> Path:
    """The existing ``{stem}.nii.gz`` or ``{stem}.nii`` in ``directory``, else the ``.nii.gz`` path."""
    for suffix in _NIFTI_SUFFIXES:
        candidate = directory / f"{stem}{suffix}"
        if candidate.exists():
            return candidate
    return _gz_file(directory, stem)


def _pair_files(pred_dir: Path, region: str, name=_find_nifti) -> tuple[Path, Path]:
    """The p and q files of one region in a prediction-pair directory, as ``name`` finds them."""
    return name(pred_dir, f"{region}_p"), name(pred_dir, f"{region}_q")


def _cert_files(cert_dir: Path, case: str) -> dict[str, Path]:
    return {region: _find_nifti(cert_dir, f"{case}_unc_{CHALLENGE_NAMES[region]}") for region in REGION_KEYS}


def _require(command: str, paths) -> None:
    """Fail fast with a usage error (exit 2) naming the first ten missing input files."""
    missing = [str(p) for p in paths if not p.exists()]
    if missing:
        more = "" if len(missing) <= 10 else f" (+{len(missing) - 10} more)"
        raise click.UsageError(f"{command}: missing input file(s): {', '.join(missing[:10])}{more}")


def _write(path: Path, write, *args) -> None:
    """``write(path, *args)``; an ``OSError`` prints ``error: <path>: <exc>`` and exits 1."""
    try:
        write(path, *args)
    except OSError as exc:
        click.echo(f"error: {path}: {exc}", err=True)
        raise SystemExit(1) from None


def _run_cases(fn, plan: list[tuple], jobs: int = 1, write=None) -> None:
    """Call ``fn(*item)`` for each item of ``plan`` on up to ``jobs`` threads.

    Each item starts with the case name. A case that raises ``ValueError`` or
    ``OSError`` is reported as ``error: <name>: <exc>`` on stderr and left out,
    so one bad input never aborts the batch. ``write``, if given, receives the
    results of the cases that succeeded, in plan order. The command then exits
    1 if any case failed.
    """

    def attempt(item):
        try:
            return fn(*item)
        except (ValueError, OSError) as exc:
            return exc

    with ThreadPoolExecutor(max_workers=jobs) as pool:
        outcomes = list(pool.map(attempt, plan))
    for (name, *_), outcome in zip(plan, outcomes):
        if isinstance(outcome, Exception):
            click.echo(f"error: {name}: {outcome}", err=True)
    results = [outcome for outcome in outcomes if not isinstance(outcome, Exception)]
    if write is not None:
        write(results)
    if len(results) < len(plan):
        raise SystemExit(1)


def _parse_axes(spec: str) -> list[Axis]:
    try:
        return [Axis[token.strip().upper()] for token in spec.split(",") if token.strip()]
    except KeyError as exc:
        raise click.UsageError(f"unknown flip axis {exc.args[0]!r}; use X, Y, Z") from exc


@click.group()
def main():
    """Uncertainty-aware segmentation toolkit."""


@main.command()
@click.option("--in", "in_path", required=True, type=click.Path(exists=True, path_type=Path))
@click.option("--out", "out_path", required=True, type=click.Path(path_type=Path))
def standardize(in_path: Path, out_path: Path):
    """Standardize nonzero intensities to zero mean, unit variance per volume."""
    if in_path.is_dir():
        targets = [(f.name, f, out_path / f.name) for f in _nifti_files(in_path)]
    else:
        targets = [(in_path.name, in_path, out_path)]

    def one_file(_, src, dst):
        vol, header = read_nifti(src)
        write_nifti(standardize_nonzero(vol), dst, header_template=header)

    _run_cases(one_file, targets)


@main.command()
@click.option("--pred", "pred_dirs", multiple=True, required=True, type=_IN_DIR,
              help="Prediction-pair directory; repeat per model/view.")
@click.option("--flips", default="", help="Comma-separated flip axes already applied upstream (X,Y,Z).")
@click.option("--out", "out_dir", required=True, type=click.Path(path_type=Path))
def ensemble(pred_dirs, flips, out_dir: Path):
    """Fuse (p, q) prediction pairs into one probability volume per region."""
    axes = _parse_axes(flips)
    plan = [(region, [_pair_files(d, region) for d in pred_dirs]) for region in REGION_KEYS]
    _require("ensemble", [path for _, files in plan for pair in files for path in pair])

    def one_region(region, files):
        pairs = []
        for p_path, q_path in files:
            p, header = read_nifti(p_path)
            q, _ = read_nifti(q_path)
            try:
                pairs.append(PredictionPair(p=p, q=q))
            except ValueError as exc:
                raise ValueError(f"{p_path}, {q_path}: {exc}") from exc
        write_nifti(ensemble_with_flips(pairs, axes), _gz_file(out_dir, f"{region}_prob"), header_template=header)

    _run_cases(one_region, plan)


@main.command()
@click.option("--prob-wt", required=True, type=click.Path(path_type=Path))
@click.option("--prob-tc", required=True, type=click.Path(path_type=Path))
@click.option("--prob-et", required=True, type=click.Path(path_type=Path))
@click.option("--config", "config_path", default=None, type=click.Path(path_type=Path))
@click.option("--out-labels", required=True, type=click.Path(path_type=Path))
@click.option("--out-report", default=None, type=click.Path(path_type=Path))
@click.option("--case-id", default=None, help="Case id for the report row (default: label file stem).")
def refine(prob_wt, prob_tc, prob_et, config_path, out_labels: Path, out_report, case_id):
    """Refine three probability channels into a BraTS label map."""
    cfg = _config(config_path)
    _require("refine", [prob_wt, prob_tc, prob_et])

    def one_case(case):
        p_wt, header = read_nifti(prob_wt)
        p_tc, _ = read_nifti(prob_tc, expect_dims=p_wt.dims)
        p_et, _ = read_nifti(prob_et, expect_dims=p_wt.dims)
        for p, path in ((p_wt, prob_wt), (p_tc, prob_tc), (p_et, prob_et)):
            require_same_grid(p_wt, p, name=path)
            require_within(p, 0.0, 1.0, f"{path}: p")
        seg, report = refine_segmentation(p_wt, p_tc, p_et, cfg.refine)
        if out_report is not None:  # first: a failed report write leaves no label map for evaluate
            write_results_table(out_report, [{"case_id": case, **report.flat_record()}], summary=False)
        write_nifti(masks_to_brats_labels(seg), out_labels, header_template=header, dtype="uint8")
        for line in report.summary_lines():
            click.echo(line, err=True)

    _run_cases(one_case, [(case_id or _case_name(out_labels),)])


@main.command()
@click.option("--prob", "prob_path", default=None, type=click.Path(path_type=Path),
              help="Probability volume (symmetric / negative-only formulas).")
@click.option("--q", "q_path", default=None, type=click.Path(path_type=Path),
              help="Flip-probability volume (flip formula).")
@click.option("--formula", required=True, type=click.Choice(["flip", "symmetric", "negative-only"]))
@click.option("--raw", is_flag=True,
              help="Write the raw uncertainty formula instead of 100-is-certain output "
                   "(symmetric and negative-only only).")
@click.option("--dtype", type=click.Choice(["uint8", "float32"]), default="uint8",
              help="uint8 rounds to the integer challenge scale.")
@click.option("--out", "out_path", required=True, type=click.Path(path_type=Path))
def uncertainty(prob_path, q_path, formula, raw, dtype, out_path: Path):
    """Convert model output to a 0-100 certainty map."""
    option, src = ("--q", q_path) if formula == "flip" else ("--prob", prob_path)
    if src is None:
        raise click.UsageError(f"--formula {formula} requires {option}")
    if raw and formula == "flip":
        raise click.UsageError("--raw only applies to symmetric and negative-only formulas")
    _require("uncertainty", [src])

    def one_file(_):
        vol, header = read_nifti(src)
        if formula == "flip":
            cert = certainty_from_q(vol)
        elif formula == "symmetric":
            cert = symmetric_uncertainty_raw(vol) if raw else certainty_symmetric(vol)
        elif raw:
            cert = negative_only_uncertainty_raw(vol)
        else:
            cert = certainty_negative_only(vol)
        if dtype == "uint8":
            np.rint(cert.data, out=cert.data)  # every formula returns a fresh float64 array
        write_nifti(cert, out_path, header_template=header, dtype=dtype)

    _run_cases(one_file, [(src,)])


@main.command()
@click.option("--pred-dir", required=True, type=_IN_DIR)
@click.option("--gt-dir", required=True, type=_IN_DIR)
@click.option("--cert-dir", default=None, type=_IN_DIR)
@click.option("--out-csv", required=True, type=click.Path(path_type=Path))
@click.option("--jobs", default=1, type=click.IntRange(min=1), show_default=True)
@click.option("--config", "config_path", default=None, type=click.Path(path_type=Path))
def evaluate(pred_dir: Path, gt_dir: Path, cert_dir, out_csv: Path, jobs, config_path):
    """Per-case Dice/HD95 (and uncertainty AUCs) against ground-truth label maps."""
    cfg = _config(config_path)
    plan, seen = [], {}
    for pred_file in _nifti_files(pred_dir):
        case = _case_name(pred_file)
        if case in seen:
            raise click.UsageError(f"evaluate: case {case!r} has two label maps: {seen[case]}, {pred_file}")
        seen[case] = pred_file
        cert_files = None if cert_dir is None else _cert_files(cert_dir, case)
        plan.append((case, pred_file, _find_nifti(gt_dir, case), cert_files))
    _require("evaluate", [f for _, pred, gt, certs in plan for f in (*(certs or {}).values(), pred, gt)])

    def one_case(case, pred_file, gt_file, cert_files):
        pred_labels, _ = read_label_volume(pred_file)
        gt_labels, _ = read_label_volume(gt_file, expect_dims=pred_labels.dims)
        require_same_grid(pred_labels, gt_labels, name=gt_file)
        pred_seg = brats_labels_to_masks(pred_labels)
        gt_seg = brats_labels_to_masks(gt_labels)
        row: dict[str, object] = {"case_id": case}
        for region in REGION_ORDER:
            pred_mask = pred_seg.mask(region)
            gt_mask = gt_seg.mask(region)
            result = compare_masks(pred_mask, gt_mask, hd95_empty_sentinel=cfg.hd95_empty_sentinel)
            row.update({f"{name}_{region.value}": getattr(result, name) for name in METRIC_FIELDS})
            if cert_files is not None:
                cert, _ = read_nifti(cert_files[region.value], expect_dims=pred_labels.dims)
                require_same_grid(pred_labels, cert, name=cert_files[region.value])
                require_within(cert, 0.0, 100.0, f"{cert_files[region.value]}: certainty")
                curve = evaluate_uncertainty(pred_mask, gt_mask, cert, cfg.uncertainty_thresholds)
                row.update({f"{name}_{region.value}": getattr(curve, name) for name in AUC_FIELDS})
        return row

    _run_cases(one_case, plan, jobs, write=lambda rows: _write(out_csv, write_results_table, rows))


@main.command()
@click.option("--labels-dir", required=True, type=_IN_DIR)
@click.option("--meta-csv", required=True, type=_IN_FILE)
@click.option("--out-csv", required=True, type=click.Path(path_type=Path))
@click.option("--config", "config_path", default=None, type=click.Path(path_type=Path))
def features(labels_dir: Path, meta_csv: Path, out_csv: Path, config_path):
    """Extract survival features (age, component counts) from label maps.

    The output doubles as scatter-plot data: survival days against age and
    the two component counts.
    """
    cfg = _config(config_path)
    try:
        meta = read_case_table(meta_csv, required=("case_id", "age"))
    except ValueError as exc:
        raise click.UsageError(str(exc)) from exc
    plan = [(row["case_id"], row, _find_nifti(labels_dir, row["case_id"])) for row in meta]
    _require("features", [label_file for *_, label_file in plan])

    def one_case(case, row, label_file):
        labels, _ = read_label_volume(label_file)
        return extract_features(
            brats_labels_to_masks(labels),
            age=cell(meta_csv, row, "age", float),
            connectivity=cfg.refine.connectivity,
            case_id=case,
            survival_days=cell(meta_csv, row, "survival_days", float) if row.get("survival_days") else None,
        )

    _run_cases(one_case, plan, write=lambda records: _write(out_csv, write_survival_table, records))


@main.command("survival-train")
@click.option("--features-csv", required=True, type=_IN_FILE)
@click.option("--seed", default=0, type=click.IntRange(min=0), show_default=True)
@click.option("--model-out", required=True, type=click.Path(path_type=Path))
@click.option("--config", "config_path", default=None, type=click.Path(path_type=Path))
def survival_train(features_csv, seed, model_out: Path, config_path):
    """Fit the fused OLS + random-forest survival model."""
    cfg = _config(config_path)
    try:
        records = read_survival_table(features_csv)
        model = fit_fusion(records, seed=seed, **vars(cfg.survival))
    except ValueError as exc:
        raise click.UsageError(str(exc)) from exc
    _write(model_out, lambda path: save_model(model, path))


@main.command("survival-predict")
@click.option("--model", "model_path", required=True, type=_IN_FILE)
@click.option("--features-csv", required=True, type=_IN_FILE)
@click.option("--out-csv", required=True, type=click.Path(path_type=Path))
def survival_predict(model_path, features_csv, out_csv: Path):
    """Predict survival days for each case in a features table."""
    try:
        model = load_model(model_path)
        records = read_survival_table(features_csv)
        rows = [(rec.case_id, predict_fused(model, rec)) for rec in records]
    except ValueError as exc:
        raise click.UsageError(str(exc)) from exc
    _write(out_csv, write_predictions_table, rows)


@main.command("survival-cv")
@click.option("--features-csv", required=True, type=_IN_FILE)
@click.option("--folds", default=5, type=int, show_default=True)
@click.option("--seed", default=0, type=click.IntRange(min=0), show_default=True)
@click.option("--out-csv", default=None, type=click.Path(path_type=Path))
@click.option("--config", "config_path", default=None, type=click.Path(path_type=Path))
def survival_cv(features_csv, folds, seed, out_csv, config_path):
    """Cross-validated accuracy of the fused model vs the OLS baseline."""
    scfg = _config(config_path).survival

    def fit_fused(train):
        model = fit_fusion(train, seed=seed, **vars(scfg))
        return lambda rec: predict_fused(model, rec)

    def fit_baseline(train):
        model = fit_ols(train, feature_set=scfg.ols_features, cap_days=scfg.cap_days)
        return model.predict

    try:
        records = read_survival_table(features_csv)
        fused, baseline = [cross_validate(records, fit, folds=folds, seed=seed, bins=scfg.bins)
                           for fit in (fit_fused, fit_baseline)]
    except ValueError as exc:
        raise click.UsageError(str(exc)) from exc
    lines = [("fold", "fused_accuracy", "ols_accuracy")]
    for i, (f_acc, o_acc) in enumerate(zip(fused, baseline), start=1):
        lines.append((str(i), repr(f_acc), repr(o_acc)))
    lines.append(("mean", repr(float(np.mean(fused))), repr(float(np.mean(baseline)))))
    if out_csv is not None:
        _write(out_csv, write_atomic, "".join(",".join(row) + "\r\n" for row in lines).encode())
    else:
        for row in lines:
            click.echo(",".join(row))


@main.command()
@click.option("--preset", default=None, type=click.Choice(sorted(PRESETS)))
@click.option("--seed", default=0, type=click.IntRange(min=0), show_default=True)
@click.option("--count", default=1, type=click.IntRange(min=1), show_default=True)
@click.option("--out", "out_dir", required=True, type=click.Path(path_type=Path))
@click.option("--config", "config_path", default=None, type=click.Path(path_type=Path))
def phantom(preset, seed, count, out_dir: Path, config_path):
    """Generate synthetic phantom cases (probability, q and ground-truth volumes)."""
    cfg = _config(config_path)
    make = PRESETS[preset or cfg.phantom.preset]
    try:  # dims too small for a preset's spheres are a configuration error, found before anything is written
        plan = [(f"phantom-{s:04d}", make(s, dims=cfg.phantom.dims)) for s in range(seed, seed + count)]
    except ValueError as exc:
        raise click.UsageError(f"bad configuration: {exc}") from exc

    def one_case(case, spec):
        data = generate_phantom(spec)
        (out_dir / case).mkdir(parents=True, exist_ok=True)  # a file in its place is named as the case's error
        # the ground truth first: a failed write leaves no prediction pairs for ensemble
        write_nifti(masks_to_brats_labels(data.gt), _gz_file(out_dir / "gt", case), dtype="uint8")
        for region in REGION_ORDER:
            p_file, q_file = _pair_files(out_dir / case, region.value, _gz_file)
            write_nifti(data.p[region], p_file)
            write_nifti(data.q[region], q_file)
        click.echo(f"generated {case}", err=True)

    _run_cases(one_case, plan)


@main.command("init-config")
@click.option("--out", "out_path", required=True, type=click.Path(path_type=Path))
def init_config(out_path: Path):
    """Write the default configuration file."""
    _write(out_path, write_atomic, default_config_yaml().encode())


if __name__ == "__main__":
    main()
