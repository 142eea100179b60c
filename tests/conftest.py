"""One deterministic hypothesis profile for every property test: examples
come from a fixed seed, nothing is replayed from a local example database,
and no per-example deadline makes a slow host fail a test. Each test sets
its own max_examples."""

from hypothesis import settings

settings.register_profile("covtomo", derandomize=True, database=None, deadline=None)
settings.load_profile("covtomo")
