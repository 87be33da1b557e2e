"""CSV input/output: survival features, predictions, cross-validation folds, per-case result and report rows.

All writers produce deterministic bytes: rows sorted by case_id, RFC 4180
quoting, floats via repr.
"""
from __future__ import annotations

import csv
import io
from collections import Counter
from dataclasses import fields
from pathlib import Path
from typing import Iterable

from .atomic import write_atomic
from .metrics import MetricResult
from .refine import REPORT_COLUMNS, RegionLabel
from .survival import SurvivalRecord
from .uncertainty import UncertaintyEvalCurve

SURVIVAL_COLUMNS = tuple(f.name for f in fields(SurvivalRecord))
PREDICTION_COLUMNS = ("case_id", "predicted_days")
CV_COLUMNS = ("fold", "fused_accuracy", "ols_accuracy")

# The results file lists regions as et, wt, tc, not in REGION_ORDER.
_RESULT_REGIONS = (RegionLabel.ENHANCING_TUMOR, RegionLabel.WHOLE_TUMOR, RegionLabel.TUMOR_CORE)
METRIC_FIELDS = tuple(f.name for f in fields(MetricResult))
AUC_FIELDS = tuple(f.name for f in fields(UncertaintyEvalCurve) if f.name.endswith("_auc"))
_METRIC_COLUMNS = tuple(f"{name}_{r.value}" for name in METRIC_FIELDS for r in _RESULT_REGIONS)
_AUC_COLUMNS = tuple(f"{name}_{r.value}" for name in AUC_FIELDS for r in _RESULT_REGIONS)
# The order of every per-case table's columns; each table writes those its rows hold.
CASE_RESULT_COLUMNS = ("case_id",) + _METRIC_COLUMNS + REPORT_COLUMNS + _AUC_COLUMNS


def _format_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _write_rows(path, header: tuple[str, ...], rows: Iterable[Iterable]) -> None:
    buf = io.StringIO(newline="")
    writer = csv.writer(buf)
    writer.writerow(header)
    for row in rows:
        writer.writerow([_format_cell(v) for v in row])
    write_atomic(path, buf.getvalue().encode())


def read_case_table(path, required: tuple[str, ...] = ("case_id",)) -> list[dict[str, str]]:
    """The rows of a CSV file as dicts; a missing required column or a case listed twice raises naming the file."""
    path = Path(path)
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        header = reader.fieldnames or []
        missing = [col for col in required if col not in header]
        if missing:
            raise ValueError(f"{path}: missing required column(s): {', '.join(missing)}")
        rows = list(reader)
    if "case_id" in header:
        twice = [case for case, n in Counter(row["case_id"] for row in rows).items() if n > 1]
        if twice:
            raise ValueError(f"{path}: case {twice[0]!r} is listed more than once")
    return rows


def cell(path, row: dict[str, str], column: str, convert):
    """``convert`` applied to one cell; a bad cell raises naming the file, case and column."""
    try:
        return convert(row[column])
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{path}: case {row['case_id']!r}: bad {column} {row[column]!r}") from exc


def write_survival_table(path, records: Iterable[SurvivalRecord]) -> None:
    rows = [[getattr(r, col) for col in SURVIVAL_COLUMNS] for r in sorted(records, key=lambda r: r.case_id)]
    _write_rows(path, SURVIVAL_COLUMNS, rows)


def read_survival_table(path) -> list[SurvivalRecord]:
    rows = read_case_table(path, SURVIVAL_COLUMNS)
    return [
        SurvivalRecord(
            case_id=row["case_id"],
            age=cell(path, row, "age", float),
            n_tumors=cell(path, row, "n_tumors", int),
            n_cores=cell(path, row, "n_cores", int),
            survival_days=None if row["survival_days"] in ("", None)
            else cell(path, row, "survival_days", float),
        )
        for row in rows
    ]


def write_predictions_table(path, rows: Iterable[tuple[str, float]]) -> None:
    _write_rows(path, PREDICTION_COLUMNS, sorted(rows, key=lambda r: r[0]))


def write_cv_table(path, rows: Iterable[tuple]) -> None:
    _write_rows(path, CV_COLUMNS, rows)


def write_results_table(path, records: list[dict], summary: bool = True) -> None:
    """Per-case rows under case_id and the CASE_RESULT_COLUMNS they hold, plus mean/std summary rows."""
    records = sorted(records, key=lambda r: str(r.get("case_id", "")))
    held = set().union(*records)
    header = tuple(col for col in CASE_RESULT_COLUMNS if col == "case_id" or col in held)
    rows = [[rec.get(col) for col in header] for rec in records]
    if summary and records:
        values = [[rec[col] for rec in records if _is_number(rec.get(col))] for col in header[1:]]
        for stat, fn in (("mean", _mean), ("std", _std)):
            rows.append([stat] + [fn(v) if v else None for v in values])
    _write_rows(path, header, rows)


def _is_number(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def _mean(values) -> float:
    return float(sum(values) / len(values))


def _std(values) -> float:
    m = _mean(values)
    return float((sum((v - m) ** 2 for v in values) / len(values)) ** 0.5)
