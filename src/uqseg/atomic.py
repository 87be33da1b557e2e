"""Whole-file writes: a reader finds the old file or the new one, never a part."""
import errno
import os
from pathlib import Path


def write_atomic(path, data) -> None:
    """Write ``data`` beside ``path``, then rename it over ``path``.

    The directory is created if missing. If anything raises, the partial file
    is removed, ``path`` is unchanged and an ``OSError`` names ``path``.
    """
    path = Path(path)
    partial = path.with_name(f".{path.name}.{os.getpid()}.part")
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        partial.write_bytes(data)
        os.replace(partial, path)
    except BaseException as exc:
        if partial.parent.is_dir():  # else a regular file is in the way, and no partial file was made
            partial.unlink(missing_ok=True)
        if isinstance(exc, OSError) and exc.strerror:
            code = errno.ENOTDIR if isinstance(exc, FileExistsError) else exc.errno  # mkdir: a file is in the way
            raise OSError(code, os.strerror(code), str(path)) from exc
        raise
