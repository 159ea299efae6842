"""Atomic file writes, on the standard library alone.

A writer fills a temp file next to its target and moves it into place once
the content is complete, so a reader sees the old file or the new one, never
a part. A target that is not a regular file is written in place instead.
``storage`` writes every file through here; the ``verify`` command
writes its report through ``write_json_atomic`` without loading ``storage``.
"""

from __future__ import annotations

import json
import os
from contextlib import contextmanager
from pathlib import Path


@contextmanager
def _atomic_file(path: Path | str):
    """Yield a binary handle on a temp file that replaces ``path`` once the block succeeds.

    The temp file is hidden, randomly named and created as ``open`` would
    create it, so it gets ``0o666`` less the umask. A symlinked ``path`` has
    its link's target replaced. An existing ``path`` that is not a regular
    file, such as a device or a FIFO, is written straight through, and a
    directory fails to open.
    """
    path = Path(path)
    if path.is_symlink():
        path = Path(os.path.realpath(path))
    if path.exists() and not path.is_file():
        with open(path, "wb") as handle:
            yield handle
        return
    tmp = path.parent / f".{path.name}.{os.urandom(8).hex()}.tmp"
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL | getattr(os, "O_BINARY", 0), 0o666)
    try:
        with os.fdopen(fd, "wb") as handle:
            yield handle
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def write_json_atomic(path: Path | str, payload) -> None:
    """Serialize deterministically, then move the finished file into place.

    No ``indent``, so the C encoder runs; keys are sorted and the file ends
    in a newline.
    """
    text = json.dumps(payload, sort_keys=True)
    with _atomic_file(path) as handle:
        handle.write(text.encode())
        handle.write(b"\n")
