"""Hypothesis settings profiles for the suite.

``pytest --hypothesis-profile=triage`` loads ``triage``: no shrink phase
and only the first failure reported, so a planted mutation that makes
several oracle fronts fail at once is reported in seconds rather than
shrunk per distinct failure for minutes.  Settings objects built at
import time (the oracle's ``Oracle.TestCase.settings``) inherit it for
every field they do not set themselves; without the option the default
profile, and so the committed settings, apply unchanged.
"""

from hypothesis import Phase, settings

settings.register_profile(
    "triage",
    phases=[Phase.explicit, Phase.reuse, Phase.generate],
    report_multiple_bugs=False,
)
