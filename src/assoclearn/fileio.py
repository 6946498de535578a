"""Atomic file replacement for run artifacts."""

from __future__ import annotations

import contextlib
import os
import threading
from pathlib import Path


@contextlib.contextmanager
def atomic_open(path, mode: str = "w", **kwargs):
    """Write a file in full or not at all.

    Yields a file opened on a temporary name in path's directory. When
    the body returns, the file is closed and renamed over path with
    os.replace, which is atomic, so a reader never sees a partly written
    file. When the body raises, the temporary file is removed and path
    keeps its previous content.
    """
    path = Path(path)
    tmp = path.with_name(
        f".{path.name}.{os.getpid()}-{threading.get_ident()}.tmp")
    try:
        with open(tmp, mode, **kwargs) as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
