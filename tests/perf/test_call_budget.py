"""A call budget for the request path.

Host cost per simulated request is what bounds replay speed, and on
the flat request path it is mostly the number of Python calls each
request makes.  This counts the calls into ``repro`` code under
cProfile (a generator resume counts as a call) over a short seeded
sharded replay and fails if the count per request regrows past the
budget.  Counts are exact for a seed, so the only slack is the
headroom below.
"""

import cProfile
import os
import pstats

import repro
from repro.loadgen.scenarios import run_load

#: ``repro`` calls per admitted request on the replay below when the
#: budget was set (the flat request path; 169.6 before it).  The
#: replay's boot, plan and report are included, so this sits above the
#: per-request figure of a long run (~117 on the perfbench ``steady``
#: parameters).
MEASURED_CALLS_PER_REQUEST = 122.8
#: Slack for small, deliberate additions before the budget is reset.
HEADROOM = 0.05


def test_repro_calls_per_request_stay_within_budget():
    profile = cProfile.Profile()
    profile.enable()
    try:
        report = run_load("poisson", seed=3, duration_s=10.0, shards=4)
    finally:
        profile.disable()
    package = os.path.dirname(repro.__file__) + os.sep
    calls = sum(
        stats[1]  # every call of one function, recursive ones included
        for (filename, _line, _name), stats in pstats.Stats(profile).stats.items()
        if filename.startswith(package)
    )
    admitted = report["fates"]["admitted"]
    assert admitted > 1000
    per_request = calls / admitted
    budget = MEASURED_CALLS_PER_REQUEST * (1 + HEADROOM)
    assert per_request <= budget, (
        f"{per_request:.1f} repro calls per request, over the budget of "
        f"{budget:.1f}: something put calls back on the request path"
    )
