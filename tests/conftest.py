"""Test settings shared by the suite.

Property tests draw their examples deterministically (the same examples on
every run), keep no example database on disk and set no per-example
deadline, since one example builds and evaluates several systems.
"""

from hypothesis import settings

settings.register_profile("tsvar", derandomize=True, database=None, deadline=None)
settings.load_profile("tsvar")
