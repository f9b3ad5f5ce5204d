"""``fileio._output``: every output is written over in place and cut to length."""

from __future__ import annotations

import os
import stat

import pytest

from dynwire.cli import main
from dynwire.errors import DynwireError
from dynwire.fileio import _output


def test_shorter_and_longer_rewrites_give_exactly_the_new_bytes(tmp_path):
    path = tmp_path / "out.txt"
    for text in (b"a" * 5000 + b"\n", b"bc\n", b"", b"d\ne\n" * 3000, b"f"):
        _output(path, [text[:3000], text[3000:]])
        assert path.read_bytes() == text


@pytest.mark.skipif(not hasattr(os, "symlink"), reason="no symlinks")
def test_symlink_is_written_through_and_stays_a_link(tmp_path):
    target, link = tmp_path / "target.txt", tmp_path / "link.txt"
    target.write_text("old content that is longer\n", encoding="utf-8")
    link.symlink_to(target)
    _output(link, [b"new\n"])
    assert link.is_symlink()
    assert target.read_bytes() == b"new\n"


@pytest.mark.skipif(os.name != "posix", reason="POSIX modes")
def test_existing_file_keeps_its_mode(tmp_path):
    path = tmp_path / "private.txt"
    path.write_text("secret and longer\n", encoding="utf-8")
    path.chmod(0o600)
    _output(path, [b"new\n"])
    assert stat.S_IMODE(path.stat().st_mode) == 0o600
    assert path.read_bytes() == b"new\n"


@pytest.mark.skipif(not hasattr(os, "link"), reason="no hard links")
def test_hard_link_sees_the_new_bytes(tmp_path):
    path, other = tmp_path / "a.txt", tmp_path / "b.txt"
    path.write_text("old content that is longer\n", encoding="utf-8")
    os.link(path, other)
    _output(path, [b"new\n"])
    assert other.read_bytes() == b"new\n"


@pytest.mark.skipif(not os.path.exists("/dev/null"), reason="no /dev/null")
def test_export_dot_to_dev_null_exits_0(repo_root, capsys):
    diagram = repo_root / "configs" / "sir" / "cyclic.json"
    assert main(["export-dot", "--diagram", str(diagram), "-o", "/dev/null"]) == 0
    assert capsys.readouterr().out == "wrote /dev/null\n"


def pieces_then(first: bytes, exc: Exception):
    yield first
    raise exc


def test_failure_inside_the_block_cuts_the_file_where_it_stopped(tmp_path):
    path = tmp_path / "out.txt"
    path.write_text("x" * 10000, encoding="utf-8")
    with pytest.raises(DynwireError, match=r"out\.txt: \[Errno 28\] No space left on device"):
        _output(path, pieces_then(b"written\n", OSError(28, "No space left on device")))
    assert path.read_bytes() == b"written\n"
    with pytest.raises(KeyError):
        _output(path, pieces_then(b"ab", KeyError("not an OSError")))
    assert path.read_bytes() == b"ab"
