"""Hypothesis profiles, and the teardown rule.

Tier-1 runs the ``default`` profile.  ``wide`` — more examples, no
deadline — is for a longer pass over the stateful models
(``pytest tests/test_proxy_model.py --hypothesis-profile=wide``, the CI
``wan`` job).

Every test ends under one rule (:mod:`tests.quiescence`, shared with
``benchmarks/``): once every listener, socket and RPC server it made is
closed and every simulator it made has drained, no process is alive, no
event is pending and no lock is held.  There are no exempt kinds: each
per-connection process ends when its connection closes, and each server
pool and accept loop when its server stops or its listener closes.
"""

from hypothesis import settings

pytest_plugins = ["tests.quiescence"]

settings.register_profile("wide", max_examples=1000, deadline=None)
