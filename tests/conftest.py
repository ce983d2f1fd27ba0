"""Shared setup of the unit and integration tests.

Registers a hypothesis ``ci`` profile, selected with
``HYPOTHESIS_PROFILE=ci`` (the CI tests job sets it): a failing example
then prints a ``@reproduce_failure`` blob that replays it locally.  The
profile changes no example budget and no deadline.
"""

import os

from hypothesis import settings

settings.register_profile("ci", print_blob=True)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))
