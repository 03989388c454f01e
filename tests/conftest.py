"""Hypothesis profiles.

Under the default profile each property test keeps its own example budget.
``pytest --hypothesis-profile=ci`` raises every budget to 1,000 derandomized
examples; CI runs ``tests/test_validate_property.py`` that way.
"""

from hypothesis import settings

settings.register_profile("ci", max_examples=1000, derandomize=True)
