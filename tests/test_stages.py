"""The case layout: every file name the CLI reads or writes, and the names the benchmark scripts import."""
from pathlib import Path

import uqseg.cli
from uqseg import stages
from uqseg.stages import CaseLayout


def test_layout_names_every_file_kind_and_is_the_cli_names_source(tmp_path):
    layout = CaseLayout(tmp_path)
    assert layout.pair("wt") == (tmp_path / "wt_p.nii.gz", tmp_path / "wt_q.nii.gz")
    assert layout.prob("tc") == tmp_path / "tc_prob.nii.gz"
    assert layout.labels("c1") == tmp_path / "c1.nii.gz"
    assert layout.certainty("c1") == {"wt": tmp_path / "c1_unc_whole.nii.gz", "tc": tmp_path / "c1_unc_core.nii.gz",
                                      "et": tmp_path / "c1_unc_enhance.nii.gz"}
    assert layout.gt("c1") == tmp_path / "gt" / "c1.nii.gz"
    assert CaseLayout.phantom_case(7) == "phantom-0007"
    for name, case in (("c1.nii.gz", "c1"), ("c1.nii", "c1"), ("c1.csv", "c1.csv"), ("a.nii.b.nii.gz", "a.nii.b")):
        assert CaseLayout.case_name(Path("d") / name) == case

    # a lookup takes .nii.gz before .nii; a name a command writes is .nii.gz whatever exists
    (tmp_path / "et_q.nii").write_bytes(b"")
    assert layout.pair("et") == (tmp_path / "et_p.nii.gz", tmp_path / "et_q.nii")
    assert layout.pair("et", find=False) == (tmp_path / "et_p.nii.gz", tmp_path / "et_q.nii.gz")
    (tmp_path / "et_q.nii.gz").write_bytes(b"")
    assert layout.pair("et")[1] == tmp_path / "et_q.nii.gz"
    (tmp_path / "c2_unc_core.nii").write_bytes(b"")
    assert layout.certainty("c2")["tc"] == tmp_path / "c2_unc_core.nii"
    (tmp_path / "notes.txt").write_text("")
    assert layout.nifti_files() == [tmp_path / name for name in ("c2_unc_core.nii", "et_q.nii", "et_q.nii.gz")]

    # the benchmark scripts import these two from uqseg.cli: one object each, owned by the stages module
    assert uqseg.cli.REGION_KEYS is stages.REGION_KEYS == ("wt", "tc", "et")
    assert uqseg.cli.CHALLENGE_NAMES is stages.CHALLENGE_NAMES == {"wt": "whole", "tc": "core", "et": "enhance"}
