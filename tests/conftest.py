# Keeps the tests directory importable (for the shared oracles module).
import contextlib
import errno
import io
import os
import shutil
import tempfile

import pytest
from hypothesis import settings

# Property tests draw the same examples on every run and keep no example
# database, so the suite stays deterministic.  Whatever else hypothesis
# stores (its constants cache, the patches it writes for a failing test)
# goes to a temporary directory that is removed when the test run ends, so
# the suite leaves no files behind.
_HYPOTHESIS_DIR = tempfile.mkdtemp(prefix="blochflow-hypothesis-")
os.environ["HYPOTHESIS_STORAGE_DIRECTORY"] = _HYPOTHESIS_DIR
settings.register_profile("blochflow", deadline=None, derandomize=True, database=None)
settings.load_profile("blochflow")


def pytest_unconfigure(config):
    shutil.rmtree(_HYPOTHESIS_DIR, ignore_errors=True)


@pytest.fixture
def spool_dir(monkeypatch, tmp_path):
    """An empty directory where the field dump's spool goes, as it goes to TMPDIR."""
    where = tmp_path / "spool"
    where.mkdir()
    monkeypatch.setattr(tempfile, "tempdir", str(where))
    return where


def _open_files(where):
    """The descriptors of this process open on files in ``where``, unlinked or not."""
    where, fds = os.path.realpath(where), set()
    if os.path.isdir("/proc/self/fd"):
        for fd in os.listdir("/proc/self/fd"):
            with contextlib.suppress(OSError):
                if os.readlink(f"/proc/self/fd/{fd}").startswith(where + os.sep):
                    fds.add(fd)
    return fds


@pytest.fixture
def assert_nothing_left(spool_dir):
    """A check that no child, no file in ``spool_dir`` and no descriptor on one there is left since the test began."""
    open_before = _open_files(spool_dir)

    def check():
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)
        assert os.listdir(spool_dir) == []
        assert _open_files(spool_dir) == open_before

    return check


class _FullSpool(io.BufferedRandom):
    """A spool in a full TMPDIR: a real temporary file whose every write fails with ENOSPC."""

    def write(self, data):
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))


@pytest.fixture
def full_spool(monkeypatch):
    """Make the field dump's spool a ``_FullSpool``."""
    make = tempfile.TemporaryFile
    monkeypatch.setattr(tempfile, "TemporaryFile", lambda: _FullSpool(make(buffering=0)))
