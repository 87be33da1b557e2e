"""Batch command-line front end.

Each subcommand parses its options, builds its plan of cases and runs one
:mod:`uqseg.stages` function per case. Every file name it reads or writes
comes from :class:`uqseg.stages.CaseLayout`, the one owner of the layout.

Exit codes: 0 success, 1 when a case failed (``error: <name>: <exc>``), 2
configuration or usage error, a missing input file included. Progress and
summaries go to stderr; results go to files.
"""
from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from functools import partial
from pathlib import Path

import click
import numpy as np

from .atomic import write_atomic
from .config import PipelineConfig, default_config_yaml, load_config
from .phantom import PRESETS
from .stages import (CHALLENGE_NAMES, REGION_KEYS, CaseLayout, case_features, certainty_map, fuse_region,  # noqa: F401
                     refine_case, score_case, standardize_file, write_phantom_case)  # benchmarks import the first two
from .survival import cross_validate, fit_fusion, fit_ols, load_model, predict_fused, save_model
from .tables import (CV_COLUMNS, read_case_table, read_survival_table, write_cv_table, write_predictions_table,
                     write_results_table, write_survival_table)
from .volumes import Axis

# Input paths must exist and be of the named kind; click refuses the wrong kind with exit 2.
_IN_FILE = click.Path(exists=True, dir_okay=False, path_type=Path)
_IN_DIR = click.Path(exists=True, file_okay=False, path_type=Path)


def _config(config_path) -> PipelineConfig:
    try:
        return load_config(config_path)
    except (ValueError, OSError) as exc:
        raise click.UsageError(f"bad configuration: {exc}") from exc


def _nifti_files(directory: Path) -> list[Path]:
    if not (files := CaseLayout(directory).nifti_files()):
        raise click.UsageError(f"no NIfTI files in {directory}")
    return files


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
    _run_cases(lambda _, src, dst: standardize_file(src, dst), targets)


@main.command()
@click.option("--pred", "pred_dirs", multiple=True, required=True, type=_IN_DIR,
              help="Prediction-pair directory; repeat per model/view.")
@click.option("--flips", default="", help="Comma-separated flip axes already applied upstream (X,Y,Z).")
@click.option("--out", "out_dir", required=True, type=click.Path(path_type=Path))
def ensemble(pred_dirs, flips, out_dir: Path):
    """Fuse (p, q) prediction pairs into one probability volume per region."""
    axes = _parse_axes(flips)
    plan = [(region, [CaseLayout(d).pair(region) for d in pred_dirs], CaseLayout(out_dir).prob(region))
            for region in REGION_KEYS]
    _require("ensemble", [path for _, files, _ in plan for pair in files for path in pair])
    _run_cases(lambda _, files, out_file: fuse_region(files, axes, out_file), plan)


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
    probs = (prob_wt, prob_tc, prob_et)
    _require("refine", probs)
    _run_cases(partial(refine_case, probs=probs, cfg=cfg.refine, out_labels=out_labels, out_report=out_report),
               [(case_id or CaseLayout.case_name(out_labels),)],
               write=lambda reports: [click.echo(line, err=True) for r in reports for line in r.summary_lines()])


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
    _run_cases(lambda _: certainty_map(src, formula, raw, dtype, out_path), [(src,)])


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
        case = CaseLayout.case_name(pred_file)
        if case in seen:
            raise click.UsageError(f"evaluate: case {case!r} has two label maps: {seen[case]}, {pred_file}")
        seen[case] = pred_file
        plan.append((case, pred_file, CaseLayout(gt_dir).labels(case),
                     None if cert_dir is None else CaseLayout(cert_dir).certainty(case)))
    _require("evaluate", [f for _, pred, gt, certs in plan for f in (*(certs or {}).values(), pred, gt)])
    _run_cases(partial(score_case, cfg=cfg), plan, jobs, write=lambda rows: _write(out_csv, write_results_table, rows))


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
    plan = [(row["case_id"], row, CaseLayout(labels_dir).labels(row["case_id"])) for row in meta]
    _require("features", [label_file for *_, label_file in plan])
    _run_cases(partial(case_features, meta_csv=meta_csv, connectivity=cfg.refine.connectivity), plan,
               write=lambda records: _write(out_csv, write_survival_table, records))


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
    rows = [*zip(range(1, len(fused) + 1), fused, baseline), ("mean", *(float(np.mean(a)) for a in (fused, baseline)))]
    if out_csv is not None:
        _write(out_csv, write_cv_table, rows)
    else:
        for row in (CV_COLUMNS, *rows):
            click.echo(",".join(v if isinstance(v, str) else repr(v) for v in row))


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
        plan = [(CaseLayout.phantom_case(s), make(s, dims=cfg.phantom.dims)) for s in range(seed, seed + count)]
    except ValueError as exc:
        raise click.UsageError(f"bad configuration: {exc}") from exc

    def one_case(case, spec):
        write_phantom_case(case, spec, CaseLayout(out_dir))
        click.echo(f"generated {case}", err=True)

    _run_cases(one_case, plan)


@main.command("init-config")
@click.option("--out", "out_path", required=True, type=click.Path(path_type=Path))
def init_config(out_path: Path):
    """Write the default configuration file."""
    _write(out_path, write_atomic, default_config_yaml().encode())


if __name__ == "__main__":
    main()
