"""Text sources and sinks: bytes that are not UTF-8 are a parse error naming
their line; paths are replaced atomically, open files are used as given."""

import io
import os
from pathlib import Path

import pytest

from cogclust import MeaningNotFoundError, ParseError
from cogclust.textio import in_file, open_sink, read_text


@pytest.mark.parametrize("data, line", [
    (b"\xffa\n", 1),
    (b"\xef\xbb\xbfa\rb\r\nc\n\xc3(\n", 4),  # a BOM, then every line end
    (b"a\nb\r\xff", 3),
    (b"a\n\xc3", 2),  # cut short at the end
], ids=["first-line", "bom-and-every-line-end", "after-a-lone-cr", "cut-short"])
def test_bytes_that_are_not_utf8_are_a_parse_error_naming_their_line(tmp_path, data, line):
    path = tmp_path / "in.tsv"
    path.write_bytes(data)
    for source in (path, io.BytesIO(path.read_bytes())):
        with pytest.raises(ParseError) as err:
            read_text(source)
        assert err.value.line == line
        assert f"line {line}: not UTF-8: byte 0x" in str(err.value)


def test_failed_write_leaves_target_and_no_temp_file(tmp_path):
    target = tmp_path / "parts.tsv"
    target.write_bytes(b"old\n")
    with pytest.raises(RuntimeError):
        with open_sink(target) as fh:
            fh.write("new\n" * 10_000)  # more than one buffer reaches the disk
            raise RuntimeError("fails midway")
    assert target.read_bytes() == b"old\n"
    assert os.listdir(tmp_path) == ["parts.tsv"]


def test_clean_write_replaces_target_with_the_mode_open_gives(tmp_path):
    with open(tmp_path / "plain.tsv", "w"):
        pass
    new = tmp_path / "new.tsv"
    with open_sink(new) as fh:
        fh.write("a\tb\r\n")
    assert new.read_bytes() == b"a\tb\r\n"
    assert os.stat(new).st_mode == os.stat(tmp_path / "plain.tsv").st_mode

    kept = tmp_path / "kept.tsv"
    kept.write_bytes(b"old contents, longer than the new ones\n")
    os.chmod(kept, 0o600)
    with open_sink(str(kept)) as fh:
        fh.write("new\n")
    assert kept.read_bytes() == b"new\n"
    assert os.stat(kept).st_mode & 0o777 == 0o600
    assert sorted(os.listdir(tmp_path)) == ["kept.tsv", "new.tsv", "plain.tsv"]


def test_symbolic_link_is_written_through(tmp_path):
    target = tmp_path / "target.tsv"
    target.write_bytes(b"old\n")
    link = tmp_path / "link.tsv"
    link.symlink_to(target)
    with pytest.raises(RuntimeError):  # the target is replaced, not truncated
        with open_sink(link) as fh:
            fh.write("new\n")
            raise RuntimeError("fails midway")
    assert target.read_bytes() == b"old\n"
    with open_sink(link) as fh:
        fh.write("new\n")
    assert link.is_symlink()
    assert target.read_bytes() == b"new\n"

    dangling = tmp_path / "dangling.tsv"
    dangling.symlink_to("made.tsv")  # relative to the link's directory
    with open_sink(dangling) as fh:
        fh.write("made\n")
    assert dangling.is_symlink()
    assert (tmp_path / "made.tsv").read_bytes() == b"made\n"

    device = tmp_path / "null"
    device.symlink_to(os.devnull)
    with open_sink(device) as fh:  # written in place, not replaced
        fh.write("gone\n")
    assert device.is_symlink() and os.path.realpath(device) == os.path.realpath(os.devnull)
    assert sorted(os.listdir(tmp_path)) == [
        "dangling.tsv", "link.tsv", "made.tsv", "null", "target.tsv",
    ]


def test_open_file_is_used_as_given_and_left_open():
    buf = io.StringIO()
    with open_sink(buf) as fh:
        fh.write("x\n")
    assert fh is buf and not buf.closed
    assert buf.getvalue() == "x\n"


def test_in_file_puts_the_path_before_a_cogclust_error_and_keeps_it_as_it_was():
    with pytest.raises(ParseError) as err:
        with in_file("in.tsv"):
            raise ParseError("bad row", line=3)
    assert (str(err.value), err.value.line) == ("in.tsv: line 3: bad row", 3)
    with pytest.raises(MeaningNotFoundError) as err:  # also a KeyError
        with in_file("gold.tsv"):
            raise MeaningNotFoundError("unknown meaning 'X'")
    assert str(err.value) == "gold.tsv: unknown meaning 'X'"
    with pytest.raises(OSError) as err:  # an i/o error names its own file
        with in_file("in.tsv"):
            raise FileNotFoundError(2, "No such file or directory", "in.tsv")
    assert str(err.value) == "[Errno 2] No such file or directory: 'in.tsv'"
    with pytest.raises(ParseError) as err:  # a path object reads as its path
        with in_file(Path("dir") / "in.tsv"):
            raise ParseError("bad row", line=3)
    assert str(err.value) == f"{Path('dir') / 'in.tsv'}: line 3: bad row"
    for source in (io.StringIO("x"), [("a", "a")]):  # an open file or pairs: no path
        with pytest.raises(ParseError) as err:
            with in_file(source):
                raise ParseError("bad row", line=3)
        assert str(err.value) == "line 3: bad row"
