from __future__ import annotations

import sys
from pathlib import Path

import pytest

import dynwire._codegen as codegen

sys.path.insert(0, str(Path(__file__).parent))


@pytest.fixture(scope="session")
def repo_root() -> Path:
    return Path(__file__).resolve().parents[1]


@pytest.fixture(scope="session")
def blocks_only():
    """``blocks_only(build, *args)`` is ``build(*args)`` with fusing turned
    off: every composite built in it runs box by box, and its boxes that
    share a program run as numpy groups through that program's batch
    kernels.  Stateless, so hypothesis tests may use it too."""

    def build(f, *args):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(codegen, "_FUSE_MAX_STATEMENTS", -1)
            return f(*args)

    return build
