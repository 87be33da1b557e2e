"""The .nii.gz writer's byte pins again, with libdeflate hidden so that every write goes through zlib.

The writer oracle and the CPU-count checks run in ``test_kernel_equality`` through libdeflate,
where a noisy float32 payload may be its member, and are collected here a second time under
the ``[zlib]`` id, where every file must be the serial zlib oracle's bytes.
"""
import pytest

from test_kernel_equality import (  # noqa: F401
    test_gzip_bytes_do_not_depend_on_cpu_count,
    test_gzip_bytes_without_affinity_call,
    test_writer_equals_concatenated_payload_oracle,
)

pytestmark = [pytest.mark.usefixtures("inflater"),
              pytest.mark.parametrize("inflater", ["zlib"], indirect=True)]
