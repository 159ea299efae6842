"""Atomic file writes, on the standard library alone.

A writer fills a temp file next to its target and moves it into place once
the content is complete, so a reader sees the old file or the new one, never
a part. ``storage`` writes every file through here; the ``verify`` command
writes its report through ``write_json_atomic`` without loading ``storage``.
"""

from __future__ import annotations

import json
import os
import tempfile
from contextlib import contextmanager
from pathlib import Path


def _umask() -> int:
    # reading the umask means setting it; it is put back at once
    mask = os.umask(0o077)
    os.umask(mask)
    return mask


@contextmanager
def _atomic_file(path: Path | str):
    """Yield a binary handle on a temp file that replaces ``path`` once the block succeeds.

    ``mkstemp`` creates the file as 0600; it gets the mode a plain ``open``
    would give it, ``0o666`` less the umask, before it moves into place.
    """
    path = Path(path)
    fd, tmp_name = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.", suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as handle:
            yield handle
        os.chmod(tmp_name, 0o666 & ~_umask())
        os.replace(tmp_name, path)
    except BaseException:
        if os.path.exists(tmp_name):
            os.unlink(tmp_name)
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
