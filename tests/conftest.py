# Keeps the tests directory importable (for the shared oracles module).
import os
import shutil
import tempfile

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
