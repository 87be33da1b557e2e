"""Seeded input generator: writes one workload's inputs as files on disk.

    PYTHONPATH=src python3 benchmarks/gen.py --workload case-gz --seed 1 --size bench --out DIR

It runs in a process of its own, so the program under test receives only
files and generation stays out of the worker's memory figures. The same
(workload, seed, size) gives the same bytes. Layout of DIR:

    cases.json                          case ids and presets, in round order
    meta.csv                            case_id, age (input of ``features``)
    cohort.csv                          survival features table
    <case>/model-{a,b}/{wt,tc,et}_{p,q}<suffix>
    gt/<case><suffix>                   BraTS ground-truth label map
"""
from __future__ import annotations

import argparse
import csv
import dataclasses
import gzip
import json
from pathlib import Path

import numpy as np

from uqseg.cli import REGION_KEYS as REGIONS
from uqseg.nifti import write_nifti
from uqseg.phantom import PRESETS, SphereSpec, generate_phantom
from uqseg.refine import REGION_ORDER, masks_to_brats_labels
from uqseg.survival import SurvivalRecord
from uqseg.tables import write_survival_table

from workloads import MODELS, SIZES, WORKLOADS

# The presets' radii, falloffs and centre jitter are read as 2 mm voxels.
PRESET_VOXEL_MM = 2.0
# Flip probability inside a diffuse tumour: the models report that they are
# unsure there. With the preset's 0.05, views that agree fuse to 0.95 and no
# gate ever fires; at 0.3 the WT and TC means fall below their gates.
DIFFUSE_Q_INSIDE = 0.3


def case_spec(preset: str, case_seed: int, size):
    """The preset's spheres rescaled to ``size``, centred on the X mirror plane.

    On the mirror plane the X-flipped view of a model's output shows the same
    anatomy as the unflipped one, as flip views of one head do.
    """
    base = PRESETS[preset](case_seed)  # on the preset's own grid
    _, jitter_y, jitter_z = (c - d / 2.0 for c, d in zip(base.regions[REGION_ORDER[0]].center, base.dims))
    scale = PRESET_VOXEL_MM / size.spacing_mm
    nx, ny, nz = size.dims
    center = ((nx - 1) / 2.0, ny / 2.0 + jitter_y * scale, nz / 2.0 + jitter_z * scale)
    regions = {
        region: SphereSpec(center, s.radius * scale, s.interior_level, s.falloff * scale)
        for region, s in base.regions.items()
    }
    q_inside = DIFFUSE_Q_INSIDE if preset == "diffuse-lgg-like" else base.q_inside
    return dataclasses.replace(base, dims=size.dims, regions=regions, spacing=(size.spacing_mm,) * 3,
                               q_inside=q_inside)


def write_volume(vol, path: Path, dtype: str | None = None) -> None:
    """Write NIfTI; ``.nii.gz`` inputs use gzip level 1 to keep generation quick."""
    if not path.name.endswith(".gz"):
        write_nifti(vol, path, dtype=dtype)
        return
    raw = path.with_name(path.name[:-3])
    write_nifti(vol, raw, dtype=dtype)
    path.write_bytes(gzip.compress(raw.read_bytes(), compresslevel=1, mtime=0))
    raw.unlink()


def cohort_records(seed: int, n: int) -> list[SurvivalRecord]:
    """Synthetic survival cohort in three interleaved classes.

    Short survivors carry several disconnected tumours and cores at any age;
    mid and long survivors have one of each and differ by age. Age-only OLS
    therefore misses most short survivors and the forest override catches
    them. Some long survivors exceed the 1000-day cap.
    """
    rng = np.random.default_rng([seed, 7])
    records = []
    for i in range(n):
        kind = i % 3
        if kind == 0:
            days, age = rng.uniform(40.0, 290.0), rng.uniform(40.0, 80.0)
            tumors, cores = int(rng.integers(3, 7)), int(rng.integers(2, 6))
        elif kind == 1:
            days, age = rng.uniform(310.0, 440.0), rng.uniform(60.0, 78.0)
            tumors, cores = 1, 1
        else:
            days, age = rng.uniform(460.0, 1500.0), rng.uniform(20.0, 56.0)
            tumors, cores = 1, 1
        records.append(SurvivalRecord(f"cohort-{i:03d}", round(float(age), 3), tumors, cores,
                                      survival_days=round(float(days), 1)))
    return records


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--size", default="bench", choices=sorted(SIZES))
    ap.add_argument("--out", required=True, type=Path)
    args = ap.parse_args()
    workload, size = WORKLOADS[args.workload], SIZES[args.size]
    seed = args.seed % 2**64  # numpy seed sequences take non-negative integers
    out = args.out
    (out / "gt").mkdir(parents=True, exist_ok=True)

    rng = np.random.default_rng([seed, 3])
    cases = []
    for i, preset in enumerate(workload.presets):
        case = f"case-{i}-{preset}"
        spec = case_spec(preset, seed * 100 + i, size)
        for model in MODELS:
            # Same spheres, independent noise: two models that agree on the anatomy.
            noise_seed = int(rng.integers(2**31))
            phantom = generate_phantom(dataclasses.replace(spec, seed=noise_seed))
            model_dir = out / case / model
            model_dir.mkdir(parents=True)
            for key, region in zip(REGIONS, REGION_ORDER):
                write_volume(phantom.p[region], model_dir / f"{key}_p{workload.suffix}")
                write_volume(phantom.q[region], model_dir / f"{key}_q{workload.suffix}")
        write_volume(masks_to_brats_labels(phantom.gt), out / "gt" / f"{case}{workload.suffix}", "uint8")
        cases.append({"case_id": case, "preset": preset, "age": round(float(rng.uniform(30.0, 80.0)), 3)})

    with open(out / "meta.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(("case_id", "age"))
        writer.writerows((c["case_id"], c["age"]) for c in cases)
    write_survival_table(out / "cohort.csv", cohort_records(seed, size.cohort))
    (out / "cases.json").write_text(json.dumps(cases, indent=1))


if __name__ == "__main__":
    main()
