# Keeps the tests directory importable (for the shared oracles module).
from hypothesis import settings

# Property tests draw the same examples on every run and keep no example
# database, so the suite stays deterministic and writes no files.
settings.register_profile("blochflow", deadline=None, derandomize=True, database=None)
settings.load_profile("blochflow")
