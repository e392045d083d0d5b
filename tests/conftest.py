"""Shared pytest set-up: a deterministic, bounded hypothesis profile, so
property tests draw the same examples on every run and stay fast."""

from hypothesis import settings

settings.register_profile("ovoid", derandomize=True, max_examples=60, deadline=None)
settings.load_profile("ovoid")
