"""The one writer of every file a run leaves behind: ``write_file`` writes
bytes, text or text in chunks, making the parent directory first, and
``remove_stale`` deletes what an earlier run left under the names a command
writes. An output path that cannot be made, written or removed is a
ConfigError (exit 2)."""

import os
import re
from collections.abc import Iterable

from .errors import ConfigError


def make_dir(path) -> str:
    """Make the directory ``path`` (and its parents) if missing; return it."""
    try:
        os.makedirs(path, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot write {path}: {exc.strerror or exc}") from None
    return path


def write_file(path, data: str | bytes | Iterable[str]) -> None:
    """Write ``data`` to ``path``, in a directory made if missing: bytes as
    they are, str as UTF-8, and an iterable of str chunks as UTF-8 in
    order, so a long text need not be held whole."""
    make_dir(os.path.dirname(path) or ".")
    chunks = [data] if isinstance(data, (str, bytes)) else data
    try:
        with open(path, "wb") as fh:
            for chunk in chunks:
                fh.write(chunk.encode("utf-8") if isinstance(chunk, str) else chunk)
    except OSError as exc:
        raise ConfigError(f"cannot write {path}: {exc.strerror or exc}") from None


def remove_stale(directory, pattern: str) -> None:
    """Delete the files in ``directory`` whose names fully match the regular
    expression ``pattern``, so a run leaves none of an earlier run's files
    under the names it writes. Nothing else in the directory is touched."""
    for name in os.listdir(directory):
        path = os.path.join(directory, name)
        if re.fullmatch(pattern, name) and os.path.isfile(path):
            try:
                os.remove(path)
            except OSError as exc:
                raise ConfigError(f"cannot remove {path}: {exc.strerror or exc}") from None
