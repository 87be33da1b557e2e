"""Closed-loop worker: runs whole rounds of one workload through uqseg's public API.

    PYTHONPATH=src python3 benchmarks/worker.py --workload case-gz --size bench \\
        --inputs DIR --work DIR --seconds 35 --trace 0 --report report.json

One process, one operation at a time. A run makes one survival pass over the
cohort, following ``survival-train``, ``survival-predict`` and ``survival-cv``,
then repeats rounds of the workload's cases, each following the order and
file naming of the CLI subcommands ``ensemble``, ``refine``, ``uncertainty``,
``evaluate`` and ``features``. Every operation is timed from outside. Case
rounds repeat while the next one fits in ``--seconds``; at least one always
runs.
Outputs are checked after the loop, outside the timed region, and the peak
RSS is read before the checks start.
"""
from __future__ import annotations

import argparse
import json
import resource
import shutil
import statistics
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import uqseg.metrics
from uqseg.cli import CHALLENGE_NAMES, REGION_KEYS as REGIONS
from uqseg.config import load_config
from uqseg.ensemble import PredictionPair, ensemble_with_flips
from uqseg.metrics import compare_masks
from uqseg.nifti import read_label_volume, read_nifti, write_nifti
from uqseg.refine import REGION_ORDER, brats_labels_to_masks, masks_to_brats_labels, refine_segmentation
from uqseg.survival import (
    cross_validate,
    extract_features,
    fit_fusion,
    fit_ols,
    load_model,
    model_to_json,
    predict_fused,
    save_model,
)
from uqseg.tables import (
    read_case_table,
    read_survival_table,
    write_predictions_table,
    write_results_table,
    write_survival_table,
)
from uqseg.uncertainty import certainty_from_q, evaluate_uncertainty
from uqseg.volumes import Axis, Volume3D

import checks
from spans import Spans
from workloads import MODELS, SIZES, WORKLOADS

MB = 1e6
FOLDS = 5
SURVIVAL_SEED = 0  # the CLI's default --seed
FLIPS = [Axis.X]
SURVIVAL_ROUND = -1  # round label of the one survival pass of a run

# per-layer metric -> (span name, field); "s" is self time, "calls" a count
PER_LAYER = {
    "nifti.decode_s": ("nifti.decode", "s"),
    "nifti.decode_calls": ("nifti.decode", "calls"),
    "nifti.read_mb": ("nifti.decode", "mb"),
    "nifti.encode_s": ("nifti.encode", "s"),
    "nifti.encode_calls": ("nifti.encode", "calls"),
    "nifti.write_mb": ("nifti.encode", "mb"),
    "ensemble.fuse_s": ("ensemble.fuse", "s"),
    "ensemble.views": ("ensemble.fuse", "views"),
    "refine.refine_s": ("refine.refine", "s"),
    "refine.fallback_regions": ("refine.refine", "fallback_regions"),
    "refine.labels_s": ("refine.labels", "s"),
    "uncertainty.certainty_s": ("uncertainty.certainty", "s"),
    "uncertainty.curve_s": ("uncertainty.curve", "s"),
    "uncertainty.curve_points": ("uncertainty.curve", "points"),
    "metrics.dice_s": ("metrics.dice", "s"),
    "metrics.hd95_s": ("metrics.hd95", "s"),
    "survival.features_s": ("survival.features", "s"),
    "survival.fit_s": ("survival.fit", "s"),
    "survival.save_s": ("survival.save", "s"),
    "survival.load_s": ("survival.load", "s"),
    "survival.predict_s": ("survival.predict", "s"),
    "survival.cv_fold_s": ("survival.cv_fold", "s"),
    "tables.write_s": ("tables.write", "s"),
    "tables.read_s": ("tables.read", "s"),
}


@dataclass
class Op:
    kind: str
    round: int
    out: Path
    case: dict | None = None
    seconds: float = 0.0
    written_mb: float = 0.0
    error: str | None = None
    result: object = None
    model: "Op | None" = None  # the train operation a predict operation reads from
    failures: list[str] = field(default_factory=list)


class Pipeline:
    """The CLI's per-case and cohort call sequences, each call in a span."""

    def __init__(self, spans: Spans, workload, size, inputs: Path):
        self.t = spans
        self.cfg = load_config(None)
        self.workload = workload
        self.size = size
        self.inputs = inputs

    def _decode(self, reader, path: Path, **kwargs):
        return self.t.call("nifti.decode", reader, path, **kwargs,
                           attrs=lambda _: {"mb": path.stat().st_size / MB})

    def _encode(self, vol, path: Path, **kwargs):
        path.parent.mkdir(parents=True, exist_ok=True)
        self.t.call("nifti.encode", write_nifti, vol, path, **kwargs,
                    attrs=lambda _: {"mb": path.stat().st_size / MB})

    def case(self, case: dict, out: Path) -> None:
        t, cfg, sfx = self.t, self.cfg, self.workload.suffix
        cid = case["case_id"]
        src = self.inputs / cid
        label_path = out / "labels" / f"{cid}{sfx}"

        # ensemble --pred model-a --pred model-b --flips X --out fused/
        for key in REGIONS:
            pairs = []
            for model in MODELS:
                p, header = self._decode(read_nifti, src / model / f"{key}_p{sfx}")
                q, _ = self._decode(read_nifti, src / model / f"{key}_q{sfx}")
                pairs.append(t.call("ensemble.fuse", PredictionPair, p=p, q=q))
            fused = t.call("ensemble.fuse", ensemble_with_flips, pairs, FLIPS,
                           attrs=lambda _: {"views": len(pairs) * (1 + len(FLIPS))})
            self._encode(fused, out / "fused" / f"{key}_prob{sfx}", header_template=header)

        # refine --prob-wt/tc/et fused/... --out-labels labels/<case> --out-report <case>_report.csv
        probs = [self._decode(read_nifti, out / "fused" / f"{key}_prob{sfx}") for key in REGIONS]
        seg, report = t.call(
            "refine.refine", refine_segmentation, *(vol for vol, _ in probs), cfg.refine,
            attrs=lambda r: {"fallback_regions": sum(x.fallback_used for x in r[1].regions.values())})
        labels = t.call("refine.labels", masks_to_brats_labels, seg)
        self._encode(labels, label_path, header_template=probs[0][1], dtype="uint8")
        row = {"case_id": cid, **report.flat_record()}
        t.call("tables.write", write_results_table, out / f"{cid}_report.csv", [row], summary=False)

        # uncertainty --formula flip --q <model-a q> --out cert/<case>_unc_<region>
        for key in REGIONS:
            q, header = self._decode(read_nifti, src / MODELS[0] / f"{key}_q{sfx}")
            cert = t.call("uncertainty.certainty", _certainty_uint8, q)
            self._encode(cert, out / "cert" / f"{cid}_unc_{CHALLENGE_NAMES[key]}{sfx}",
                         header_template=header, dtype="uint8")

        # evaluate --pred-dir labels/ --gt-dir gt/ --cert-dir cert/ --out-csv results.csv
        pred_labels, _ = self._decode(read_label_volume, label_path)
        gt_labels, _ = self._decode(read_label_volume, self.inputs / "gt" / f"{cid}{sfx}",
                                    expect_dims=pred_labels.dims)
        pred_seg = t.call("refine.labels", brats_labels_to_masks, pred_labels)
        gt_seg = t.call("refine.labels", brats_labels_to_masks, gt_labels)
        row = {"case_id": cid}
        for key, region in zip(REGIONS, REGION_ORDER):
            pred_mask, gt_mask = pred_seg.mask(region), gt_seg.mask(region)
            result = t.call("metrics.compare", compare_masks, pred_mask, gt_mask,
                            hd95_empty_sentinel=cfg.hd95_empty_sentinel)
            row[f"dice_{key}"], row[f"hd95_{key}"] = result.dice, result.hd95
            cert, _ = self._decode(read_nifti, out / "cert" / f"{cid}_unc_{CHALLENGE_NAMES[key]}{sfx}",
                                   expect_dims=pred_labels.dims)
            curve = t.call("uncertainty.curve", evaluate_uncertainty, pred_mask, gt_mask, cert,
                           self.workload.thresholds, attrs=lambda c: {"points": len(c.thresholds)})
            row[f"dice_auc_{key}"] = curve.dice_auc
            row[f"ftp_auc_{key}"] = curve.ftp_auc
            row[f"ftn_auc_{key}"] = curve.ftn_auc
        t.call("tables.write", write_results_table, out / "results.csv", [row])

        # features --labels-dir labels/ --meta-csv meta.csv --out-csv features.csv
        meta = t.call("tables.read", read_case_table, self.inputs / "meta.csv", required=("case_id", "age"))
        age = next(float(r["age"]) for r in meta if r["case_id"] == cid)
        labels, _ = self._decode(read_label_volume, label_path)
        record = t.call("survival.features", extract_features,
                        t.call("refine.labels", brats_labels_to_masks, labels),
                        age=age, connectivity=cfg.refine.connectivity, case_id=cid)
        t.call("tables.write", write_survival_table, out / "features.csv", [record])

    def _fit(self, records):
        s = self.cfg.survival
        return fit_fusion(records, seed=SURVIVAL_SEED, ols_features=s.ols_features,
                          forest_features=s.forest_features, n_trees=self.size.trees,
                          max_depth=s.max_depth, cap_days=s.cap_days, override_prob=s.override_prob,
                          override_days=s.override_days, bins=s.bins)

    def train(self, out: Path):
        """survival-train --features-csv cohort.csv --model-out model.json"""
        records = self.t.call("tables.read", read_survival_table, self.inputs / "cohort.csv")
        model = self.t.call("survival.fit", self._fit, records)
        self.t.call("survival.save", save_model, model, out / "model.json")
        return model

    def predict(self, model_path: Path, out: Path) -> int:
        """survival-predict --model model.json --features-csv cohort.csv --out-csv predictions.csv"""
        model = self.t.call("survival.load", load_model, model_path)
        records = self.t.call("tables.read", read_survival_table, self.inputs / "cohort.csv")
        rows = [(rec.case_id, self.t.call("survival.predict", predict_fused, model, rec)) for rec in records]
        self.t.call("tables.write", write_predictions_table, out / "predictions.csv", rows)
        return len(rows)

    def cv(self, out: Path) -> None:
        """survival-cv --features-csv cohort.csv --folds 5 --out-csv cv.csv"""
        t, s = self.t, self.cfg.survival

        def fused_fold(train):
            model = self._fit(train)
            return t.wrap("survival.cv_fold", lambda rec: predict_fused(model, rec))

        def ols_fold(train):
            model = fit_ols(train, feature_set=s.ols_features, cap_days=s.cap_days)
            return t.wrap("survival.cv_fold", lambda rec: min(max(model.predict(rec), 0.0), s.cap_days))

        records = t.call("tables.read", read_survival_table, self.inputs / "cohort.csv")
        fused = t.call("survival.cv", cross_validate, records, t.wrap("survival.cv_fold", fused_fold),
                       folds=FOLDS, seed=SURVIVAL_SEED, bins=s.bins)
        baseline = t.call("survival.cv", cross_validate, records, t.wrap("survival.cv_fold", ols_fold),
                          folds=FOLDS, seed=SURVIVAL_SEED, bins=s.bins)
        lines = [("fold", "fused_accuracy", "ols_accuracy")]
        lines += [(str(i), repr(f), repr(o)) for i, (f, o) in enumerate(zip(fused, baseline), start=1)]
        lines.append(("mean", repr(float(np.mean(fused))), repr(float(np.mean(baseline)))))
        (out / "cv.csv").write_text("\r\n".join(",".join(line) for line in lines) + "\r\n")


def _certainty_uint8(q: Volume3D) -> Volume3D:
    """The flip-formula certainty rounded to the integer scale, as ``uncertainty --dtype uint8``."""
    cert = certainty_from_q(q)
    return Volume3D(np.rint(cert.data), cert.spacing)


def run_loop(pipe: Pipeline, cases: list[dict], work: Path, seconds: float) -> list[Op]:
    t = pipe.t
    ops: list[Op] = []

    def run(op: Op, fn, *args):
        op.out.mkdir(parents=True)
        t.case = op.case["case_id"] if op.case else None
        t.round = op.round
        start = time.perf_counter()
        try:
            op.result = t.call(f"op.{op.kind}", fn, *args)
        except Exception:
            op.error = traceback.format_exc()
        op.seconds = time.perf_counter() - start
        op.written_mb = sum(p.stat().st_size for p in op.out.rglob("*") if p.is_file()) / MB
        ops.append(op)

    started = time.perf_counter()
    # The survival chain once, then case rounds for the rest of the time.
    train = Op("train", SURVIVAL_ROUND, work / "train")
    run(train, pipe.train, train.out)
    predict = Op("predict", SURVIVAL_ROUND, work / "predict", model=train)
    run(predict, pipe.predict, train.out / "model.json", predict.out)
    cv = Op("cv", SURVIVAL_ROUND, work / "cv")
    run(cv, pipe.cv, cv.out)
    rnd = 0
    while True:
        round_start = time.perf_counter()
        for i, case in enumerate(cases):
            op = Op("case", rnd, work / f"r{rnd}-case{i}", case=case)
            run(op, pipe.case, case, op.out)
        rnd += 1
        now = time.perf_counter()
        if now - started + (now - round_start) > seconds:
            return ops


def check_ops(ops: list[Op], pipe: Pipeline) -> None:
    """Fill each operation's failures; delete case outputs once checked."""
    size, workload, inputs = pipe.size, pipe.workload, pipe.inputs
    expected: dict[str, checks.CaseExpectation] = {}
    fitted: dict[int, dict[str, float]] = {}  # id(train op) -> its in-memory predictions
    by_json: dict[str, dict[str, float]] = {}  # equal model files predict alike
    records = read_survival_table(inputs / "cohort.csv")
    for op in ops:
        if op.error is not None:
            op.failures.append(op.error.strip().splitlines()[-1])
            continue
        try:
            if op.kind == "case":
                cid = op.case["case_id"]
                if cid not in expected:
                    expected[cid] = checks.CaseExpectation(op.case, inputs, workload.suffix, size.dims)
                op.failures += checks.check_case(op.case, expected[cid], op.out, workload.suffix,
                                                 size.dims, size.spacing_mm, workload.thresholds)
            elif op.kind == "train":
                doc = model_to_json(op.result)
                if doc not in by_json:
                    by_json[doc] = {r.case_id: predict_fused(op.result, r) for r in records}
                fitted[id(op)] = by_json[doc]
                op.failures += checks.check_model(inputs / "cohort.csv", op.out / "model.json",
                                                  fitted[id(op)], size.trees)
            elif op.kind == "predict":
                op.failures += checks.check_predictions(op.out / "predictions.csv", fitted.get(id(op.model), {}))
            else:
                op.failures += checks.check_cv(op.out / "cv.csv", FOLDS)
        except Exception as exc:
            op.failures.append(f"{op.kind} check raised {type(exc).__name__}: {exc}")
        if op.kind == "case":
            shutil.rmtree(op.out, ignore_errors=True)


def end_to_end(ops: list[Op]) -> dict[str, float]:
    def median(kind, value):
        return statistics.median(value(op) for op in ops if op.kind == kind)

    return {
        "case_s": median("case", lambda op: op.seconds),
        "case_written_mb": median("case", lambda op: op.written_mb),
        "model_kb": median("train", lambda op: (op.out / "model.json").stat().st_size / 1e3),
        # Survival times, one sample each, printed for reading only: on a
        # shared host their pure-Python code drifts too much to gate on them.
        "train_s": median("train", lambda op: op.seconds),
        "predict_rps": median("predict", lambda op: op.result / op.seconds),
        "cv_s": median("cv", lambda op: op.seconds),
    }


def per_layer(spans: Spans) -> dict[str, float]:
    """Each figure is its total in the survival pass plus its mean over the case rounds."""
    rounds = spans.per_round()
    survival = rounds.pop(SURVIVAL_ROUND)
    return {
        metric: survival[name][fld] + statistics.fmean(rounds[r][name][fld] for r in rounds)
        for metric, (name, fld) in PER_LAYER.items()
    }


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--size", default="bench", choices=sorted(SIZES))
    ap.add_argument("--inputs", required=True, type=Path)
    ap.add_argument("--work", required=True, type=Path)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--trace-out", type=Path, help="JSON-lines file for the spans of a traced run")
    ap.add_argument("--report", required=True, type=Path)
    args = ap.parse_args()

    spans = Spans(bool(args.trace))
    if args.trace:
        # compare_masks looks these up in its module, so wrapping them there
        # splits its time into Dice and HD95 without touching the package.
        uqseg.metrics.dice = spans.wrap("metrics.dice", uqseg.metrics.dice)
        uqseg.metrics.hausdorff95 = spans.wrap("metrics.hd95", uqseg.metrics.hausdorff95)
    pipe = Pipeline(spans, WORKLOADS[args.workload], SIZES[args.size], args.inputs)
    cases = json.loads((args.inputs / "cases.json").read_text())

    ops = run_loop(pipe, cases, args.work, args.seconds)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / MB
    check_ops(ops, pipe)

    failed = [op for op in ops if op.failures]
    metrics = {"peak_rss_mb": peak_rss_mb}
    ok = [op for op in ops if not op.failures]
    if {op.kind for op in ok} == {"case", "train", "predict", "cv"}:
        metrics.update(end_to_end(ok))
    if args.trace:
        metrics.update(per_layer(spans))
        if args.trace_out is not None:
            spans.dump(args.trace_out)
    report = {
        "attempted": len(ops),
        "failed": len(failed),
        "rounds": ops[-1].round + 1,
        # a check that failed on an operation that ran means a wrong output
        "correct": not any(op.error is None and op.failures for op in ops),
        "failures": [f"{op.kind} round {op.round}: {msg}" if op.case else f"{op.kind}: {msg}"
                     for op in failed for msg in op.failures],
        "metrics": metrics,
    }
    args.report.write_text(json.dumps(report, indent=1))


if __name__ == "__main__":
    main()
