"""Hypothesis profiles.

Tier-1 runs the ``default`` profile.  ``wide`` — more examples, no
deadline — is for a longer pass over the stateful models
(``pytest tests/test_proxy_model.py --hypothesis-profile=wide``, the CI
``wan`` job).
"""

from hypothesis import settings

settings.register_profile("wide", max_examples=1000, deadline=None)
