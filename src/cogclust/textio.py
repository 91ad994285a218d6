"""UTF-8 text sources and sinks shared by the file readers and writers."""

import os
from contextlib import nullcontext
from typing import IO


def read_text(source: str | os.PathLike | IO) -> str:
    """Whole text of a path or an open text or binary file, minus a leading BOM."""
    if hasattr(source, "read"):
        data = source.read()
        text = data.decode("utf-8") if isinstance(data, bytes) else data
    else:
        with open(os.fspath(source), encoding="utf-8") as fh:
            text = fh.read()
    return text.removeprefix("\ufeff")


def open_sink(sink: str | os.PathLike | IO):
    """Context manager yielding a text sink.

    An open file is yielded as it is and left open; a path is opened for
    UTF-8 with ``\\n`` line ends and closed on exit.
    """
    if hasattr(sink, "write"):
        return nullcontext(sink)
    return open(os.fspath(sink), "w", encoding="utf-8", newline="\n")
