"""Suite-wide settings.

Hypothesis runs derandomized: every run of the suite draws the same
examples, keeps no example database, and has no per-example deadline, so
the property tests stay reproducible and take a few seconds.
"""
from hypothesis import settings

settings.register_profile("wavesplit", derandomize=True, max_examples=150, deadline=None)
settings.load_profile("wavesplit")
