"""Whole-file writes: a reader finds the old file or the new one, never a part."""
import os
from pathlib import Path


def write_atomic(path, data) -> None:
    """Write ``data`` beside ``path``, then rename it over ``path``.

    The directory is created if missing. If anything raises, the partial file
    is removed, ``path`` is unchanged and an ``OSError`` names ``path``.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    partial = path.with_name(f".{path.name}.{os.getpid()}.part")
    try:
        partial.write_bytes(data)
        os.replace(partial, path)
    except BaseException as exc:
        partial.unlink(missing_ok=True)
        if isinstance(exc, OSError) and exc.strerror:
            raise OSError(exc.errno, exc.strerror, str(path)) from exc
        raise
