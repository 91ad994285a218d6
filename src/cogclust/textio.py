"""UTF-8 text sources and sinks shared by the file readers and writers.

This module owns the rules every text input shares: how its bytes are decoded
(``read_text``), how an error names its file (``in_file``) and the one line
rule. ``read_rows`` reads the rows of decoded text: only ``\\n`` ends a line,
blank lines count in line numbers, and a line becomes a row of tab-separated
fields. ``first_line`` reads a header by the same rule.
"""

import os
import stat
import sys
from contextlib import contextmanager, nullcontext, suppress
from itertools import chain, islice
from typing import IO, Iterator

from .errors import CogclustError, ParseError

# Characters split into lines at a time by read_rows: large enough that the
# split runs in C, small enough that its list of lines stays small.
_BLOCK_CHARS = 1 << 16


def read_text(source: str | os.PathLike | IO) -> str:
    """Whole text of a path or an open text or binary file, minus a leading BOM.

    Bytes are decoded as UTF-8, and bytes that are not UTF-8 raise a
    ``ParseError`` naming their line. Line ends are ``\\n`` whatever the
    source: ``\\r\\n`` and a lone ``\\r`` are read as ``\\n``.
    """
    if hasattr(source, "read"):
        data = source.read()
    else:
        with open(os.fspath(source), "rb") as fh:
            data = fh.read()
    if isinstance(data, bytes):
        try:
            data = data.decode("utf-8")
        except UnicodeDecodeError as exc:
            # The bad byte is no line end, so it ends the last line counted.
            raise ParseError(
                f"not UTF-8: byte 0x{data[exc.start]:02x} ({exc.reason})",
                line=len(data[: exc.start + 1].splitlines()),
            ) from None
    return data.replace("\r\n", "\n").replace("\r", "\n").removeprefix("\ufeff")


def first_line(text: str) -> str:
    """Line 1 of ``text``, without its line end."""
    end = text.find("\n")
    return text if end < 0 else text[:end]


def read_rows(text: str, ncols: int, *, start: int = 1) -> Iterator[tuple[int, list[str]]]:
    """Yield ``(line number, fields)`` for each non-empty line of ``text`` from
    line ``start`` on; a line without exactly ``ncols`` tab-separated fields
    raises a ``ParseError`` with its line number.

    Only ``\\n`` ends a line, and blank lines count in line numbers. The text
    is split a block of lines at a time, so no list of every line is built.
    """
    lines = chain.from_iterable(block.split("\n") for block in _blocks(text))
    for lineno, line in enumerate(islice(lines, start - 1, None), start=start):
        if line:
            fields = line.split("\t")
            if len(fields) != ncols:
                raise ParseError(f"expected {ncols} columns, got {len(fields)}", line=lineno)
            yield lineno, fields


def _blocks(text: str) -> Iterator[str]:
    """``text`` in pieces of about ``_BLOCK_CHARS`` that each end before a
    ``\\n``, that ``\\n`` left out, so that their lines are the text's lines."""
    start = 0
    while start < len(text):
        end = text.find("\n", start + _BLOCK_CHARS)
        if end < 0:
            end = len(text)
        yield text[start:end]
        start = end + 1


@contextmanager
def in_file(source):
    """A cogclust error raised in the block starts with ``source``, if it is a path.

    Readers check their settings before this block, so a setting's error
    names no file. An open file's errors, and an ``OSError``, pass unchanged.
    """
    try:
        yield
    except CogclustError as exc:
        if isinstance(source, (str, os.PathLike)):
            exc.args = (f"{os.fspath(source)}: {exc}",)
        raise


def open_sink(sink: str | os.PathLike | IO):
    """Context manager yielding a text sink.

    An open file is yielded as it is and left open. A path is written
    atomically, in UTF-8 with ``\\n`` line ends: the text goes to a temporary
    file in the same directory, which replaces the path on a clean exit and
    is removed if the block raises, so the path holds either its old bytes
    or all of the new ones. A symbolic link to a regular file or to nothing
    stays a link: the file it resolves to is the one replaced. A path that
    leads to anything else (a device, a FIFO, ``/dev/stdout``) is written in
    place. ``sys.stdout`` gets UTF-8 whatever the locale: after a flush, its
    file descriptor is written directly, if it has one.
    """
    if sink is sys.stdout:
        sink.flush()  # what it holds goes first
        with suppress(OSError):  # an in-memory stream has no descriptor
            return open(sink.fileno(), "w", encoding="utf-8", newline="\n", closefd=False)
    if hasattr(sink, "write"):
        return nullcontext(sink)
    path = os.fspath(sink)
    try:
        existing = os.stat(path)  # of a link's target
    except FileNotFoundError:
        existing = None
    if existing is not None and not stat.S_ISREG(existing.st_mode):
        return open(path, "w", encoding="utf-8", newline="\n")
    if os.path.islink(path):
        path = os.path.realpath(path)
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
