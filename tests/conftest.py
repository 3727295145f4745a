"""Hypothesis settings shared by every property test: no per-example
deadline, because the properties run whole simulations, replays and
solves whose time follows the host's load, not the code under test."""

from hypothesis import settings

settings.register_profile("lobeq", deadline=None)
settings.load_profile("lobeq")
