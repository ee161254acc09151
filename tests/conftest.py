from pathlib import Path

from hypothesis import configuration, settings

# Derandomised, so every run of the suite draws the same examples, and no
# example database.  Hypothesis still keeps caches (the constants it reads
# from source files, its unicode character table) in its storage
# directory; that is the repo's gitignored .hypothesis/, so later runs
# reuse them instead of rebuilding them.
settings.register_profile("finring", derandomize=True, database=None, deadline=None)
settings.load_profile("finring")
configuration.set_hypothesis_home_dir(Path(__file__).resolve().parent.parent / ".hypothesis")
