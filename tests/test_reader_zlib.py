"""The .nii.gz reader tests again, with libdeflate hidden so that every read goes through zlib.

``TestNifti``, the reader fuzz and the gzip reader equality run in their own modules through
libdeflate, and are collected here a second time under the ``[zlib]`` id.
"""
import pytest

from test_io import TestNifti  # noqa: F401
from test_kernel_equality import test_gzip_reader_equals_former_reader  # noqa: F401
from test_reader_fuzz import *  # noqa: F401,F403

pytestmark = [pytest.mark.usefixtures("inflater"),
              pytest.mark.parametrize("inflater", ["zlib"], indirect=True)]
