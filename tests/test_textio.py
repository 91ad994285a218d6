"""Text sinks: paths are replaced atomically, open files are used as given."""

import io
import os

import pytest

from cogclust.textio import open_sink


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
    with open_sink(link) as fh:
        fh.write("new\n")
    assert link.is_symlink()
    assert target.read_bytes() == b"new\n"


def test_open_file_is_used_as_given_and_left_open():
    buf = io.StringIO()
    with open_sink(buf) as fh:
        fh.write("x\n")
    assert fh is buf and not buf.closed
    assert buf.getvalue() == "x\n"
