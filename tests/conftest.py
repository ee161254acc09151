import atexit
import shutil
import tempfile

from hypothesis import configuration, settings

# Derandomised, so every run of the suite draws the same examples, and no
# example database.  Hypothesis still caches the constants it reads from
# source files; that cache goes to a temporary directory removed at exit,
# so the suite leaves no .hypothesis/ directory behind.
settings.register_profile("finring", derandomize=True, database=None, deadline=None)
settings.load_profile("finring")
_storage = tempfile.mkdtemp(prefix="finring-hypothesis-")
configuration.set_hypothesis_home_dir(_storage)
atexit.register(shutil.rmtree, _storage, ignore_errors=True)
