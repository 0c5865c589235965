"""Hypothesis runs the same examples on every run and has no deadline, so
property tests neither change between runs nor flake on a loaded machine."""

from hypothesis import settings

settings.register_profile("deterministic", derandomize=True, deadline=None)
settings.load_profile("deterministic")
