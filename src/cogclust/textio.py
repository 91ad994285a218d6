"""UTF-8 text sources and sinks shared by the file readers and writers."""

import os
import stat
from contextlib import contextmanager, nullcontext, suppress
from typing import IO


def read_text(source: str | os.PathLike | IO) -> str:
    """Whole text of a path or an open text or binary file, minus a leading BOM.

    Line ends are ``\\n`` whatever the source: ``\\r\\n`` and a lone ``\\r``
    are read as ``\\n``, as ``open()`` reads a path.
    """
    if hasattr(source, "read"):
        data = source.read()
        text = data.decode("utf-8") if isinstance(data, bytes) else data
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    else:
        with open(os.fspath(source), encoding="utf-8") as fh:
            text = fh.read()
    return text.removeprefix("\ufeff")


def open_sink(sink: str | os.PathLike | IO):
    """Context manager yielding a text sink.

    An open file is yielded as it is and left open. A path is written
    atomically, in UTF-8 with ``\\n`` line ends: the text goes to a temporary
    file in the same directory, which replaces the path on a clean exit and
    is removed if the block raises, so the path holds either its old bytes
    or all of the new ones. A path that names something other than a regular
    file (a symbolic link, a device, a FIFO) is written in place.
    """
    if hasattr(sink, "write"):
        return nullcontext(sink)
    path = os.fspath(sink)
    try:
        existing = os.lstat(path)
    except FileNotFoundError:
        existing = None
    if existing is not None and not stat.S_ISREG(existing.st_mode):
        return open(path, "w", encoding="utf-8", newline="\n")
    return _replacing_sink(path, existing)


@contextmanager
def _replacing_sink(path: str, existing: os.stat_result | None):
    directory, name = os.path.split(path)
    tmp = os.path.join(directory, f".{name}.{os.urandom(6).hex()}.tmp")
    # The mode open() would give: 0o666 less the umask for a new file, the
    # old file's mode for one it overwrites.
    try:
        fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    except OSError as exc:  # name the path asked for, not the temporary one
        raise OSError(exc.errno, exc.strerror, path) from None
    try:
        with open(fd, "w", encoding="utf-8", newline="\n") as fh:
            if existing is not None:
                os.chmod(tmp, stat.S_IMODE(existing.st_mode))
            yield fh
        os.replace(tmp, path)
    except BaseException:
        with suppress(OSError):
            os.unlink(tmp)
        raise
