"""``fileio._read``: every file is read whole, and fails as ``open`` fails."""

from __future__ import annotations

import json
import os
import threading
from pathlib import Path

import pytest

import dynwire.fileio as fileio
from dynwire.errors import DynwireError
from dynwire.fileio import load_diagram, load_json

# A diagram of more than 4096 bytes (read column-wise) with a byte that is
# not UTF-8 near its end.
BIG_LATIN1 = json.dumps({"schema": "UWD", "B": 1, "J": 1, "box": [0] * 3000}).encode()[:-1] + b', "\xff": 1}'

# The files of each case, and the message both loaders raise for it: these
# are the words of ``open``, ``bytes.decode`` and ``json``, relative paths
# as given.
FILES = {
    "latin1.json": b'\xff\xfe{}',
    "big-latin1.json": BIG_LATIN1,
    "empty.json": b"",
    "invalid.json": b'{"schema": "UWD", "B": 1,,}',
}
MESSAGES = {
    "missing.json": "missing.json: [Errno 2] No such file or directory: 'missing.json'",
    "folder": "folder: [Errno 21] Is a directory: 'folder'",
    "latin1.json": "latin1.json: 'utf-8' codec can't decode byte 0xff in position 0: invalid start byte",
    "big-latin1.json": (
        "big-latin1.json: 'utf-8' codec can't decode byte 0xff in position 9044: invalid start byte"
    ),
    "empty.json": "empty.json: Expecting value: line 1 column 1 (char 0)",
    "invalid.json": (
        "invalid.json: Expecting property name enclosed in double quotes: line 1 column 26 (char 25)"
    ),
}


@pytest.mark.parametrize("kind", [str, Path])
@pytest.mark.parametrize("load", [load_json, load_diagram])
@pytest.mark.parametrize("name", MESSAGES)
def test_unreadable_files_raise_the_messages_of_open_and_json(tmp_path, monkeypatch, kind, load, name):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "folder").mkdir()
    for file, data in FILES.items():
        (tmp_path / file).write_bytes(data)
    with pytest.raises(DynwireError) as info:
        load(kind(name))
    assert str(info.value) == MESSAGES[name]


@pytest.mark.parametrize("size", [0, 1, 4095, 65535, 65536, 65537, 300_000])
def test_regular_files_are_read_whole(tmp_path, size):
    path = tmp_path / "data.bin"
    path.write_bytes(bytes(range(256)) * (size // 256) + b"x" * (size % 256))
    assert fileio._read(path) == path.read_bytes()


def test_a_file_over_64_kib_loads_whole(tmp_path):
    data = {"boxes": [f"box{k}" for k in range(20_000)]}
    path = tmp_path / "labels.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    assert path.stat().st_size > 65536
    assert load_json(path) == data


def test_a_file_that_reads_short_is_read_to_its_end(tmp_path, monkeypatch):
    path = tmp_path / "data.bin"
    path.write_bytes(os.urandom(100_000))
    read = os.read
    with monkeypatch.context() as m:
        m.setattr(os, "read", lambda fd, n: read(fd, min(n, 1000)))
        data = fileio._read(path)
    assert data == path.read_bytes()


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no FIFOs")
def test_a_fifo_is_read_to_its_end(tmp_path):
    # More than a pipe holds at once: the reader takes it in several reads.
    config = {"h": 0.1, "steps": 3, "init": [0.25] * 40_000}
    text = json.dumps(config).encode()
    fifo = tmp_path / "config.json"
    os.mkfifo(fifo)

    def feed():
        with open(fifo, "wb") as fh:
            fh.write(text)

    writer = threading.Thread(target=feed, daemon=True)
    writer.start()
    try:
        assert load_json(fifo) == config
    finally:
        writer.join(timeout=60)
    assert not writer.is_alive()
    assert len(text) > 65536
