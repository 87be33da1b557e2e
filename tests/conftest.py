import pytest

from uqseg import nifti


@pytest.fixture
def inflater(request, monkeypatch):
    """The codec ``.nii.gz`` files are read and written through: "libdeflate" (the default) or "zlib".

    Parametrize it indirectly to choose. "zlib" hides libdeflate, so every read and every write
    takes the zlib path; "libdeflate" skips the test where the system has no libdeflate.
    """
    name = getattr(request, "param", "libdeflate")
    if name == "zlib":
        monkeypatch.setattr(nifti, "_libdeflate", lambda: None)
    elif nifti._libdeflate() is None:
        pytest.skip("libdeflate is not installed; the zlib run of this test reads through zlib")
    return name
