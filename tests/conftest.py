"""Hypothesis profiles.

``pytest --hypothesis-profile=ci`` derandomises every search, so a CI run
draws the same examples each time and a failure reproduces; without the
option the default profile keeps the random search.
"""

from hypothesis import settings

settings.register_profile("ci", derandomize=True, database=None, print_blob=True)
