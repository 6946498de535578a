"""Atomic replacement of the files the program writes, and the one
bounded reader of the bytes of every file it reads."""

from __future__ import annotations

import contextlib
import gzip
import os
import threading
import zlib
from pathlib import Path

from .errors import DataError, TruncatedFileError


@contextlib.contextmanager
def atomic_open(path, mode: str = "w", **kwargs):
    """Write a file in full or not at all, and durably.

    Yields a file opened on a temporary name in path's directory. When
    the body returns, the file is flushed to disk (fsync), closed and
    renamed over path with os.replace, which is atomic, so a reader never
    sees a partly written file; on POSIX the directory is then fsynced
    too, so the rename survives a crash. When the body raises, the
    temporary file is removed and path keeps its previous content.
    """
    path = Path(path)
    tmp = path.with_name(
        f".{path.name}.{os.getpid()}-{threading.get_ident()}.tmp")
    try:
        with open(tmp, mode, **kwargs) as fh:
            yield fh
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
    if os.name == "posix":
        fd = os.open(path.parent, os.O_RDONLY)
        try:
            os.fsync(fd)
        finally:
            os.close(fd)


def read_exact(fh, count: int, what, last: bool = False) -> bytearray:
    """count bytes of fh, read in chunks of at most 1 MiB: CPython
    allocates the size each read asks for, so a file that declares more
    than it holds costs one chunk. A short file raises TruncatedFileError.
    With last, the file must end there: a byte after it raises DataError,
    and reading on to the end makes gzip check its CRC-32 and length. A
    corrupt gzip stream raises DataError. Every message starts with what."""
    data, want = bytearray(), count + 1 if last else count
    while len(data) < want:
        try:
            part = fh.read(min(want - len(data), 1 << 20))
        except (EOFError, zlib.error, gzip.BadGzipFile) as e:
            raise DataError(f"{what}: corrupt gzip stream: {e}") from e
        if not part:
            break
        data += part
    if len(data) < count:
        raise TruncatedFileError(f"{what}: needed {count} bytes, "
                                 f"file ended after {len(data)}")
    if len(data) > count:
        raise DataError(f"{what}: bytes after the declared payload")
    return data
