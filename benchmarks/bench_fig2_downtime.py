"""Figure 2 bench: downtime by error category, one simulated year,
before vs after the intelliagents.

Paper: 550 h total across eight categories (mid-crash 345 h dominating)
drops to 31 h (stated; the per-category values sum to 39 h).  Shape
asserted: mid-crash dominates before; total improvement is an order of
magnitude; the not-auto-fixable categories (firewall/network, hardware)
improve least.
"""

from conftest import emit

from repro.experiments import fig2
from repro.faults.models import Category


def test_fig2_downtime():
    result = fig2.run_replicated()
    emit(fig2.format_result(result))

    before = {Category(c): h for c, h in result["before_hours"].items()}
    after = {Category(c): h for c, h in result["after_hours"].items()}
    total_before, total_after = sum(before.values()), sum(after.values())

    # calibration: the baseline year lands near the paper's 550 h
    assert 350.0 < total_before < 800.0
    # the headline: an order-of-magnitude drop
    assert total_before / total_after > 8.0
    assert total_after < 80.0

    # mid-crash dominates the before column
    assert before[Category.MID_CRASH] == max(before.values())
    assert before[Category.MID_CRASH] > 0.4 * total_before

    # every category improves
    for cat in Category:
        if before[cat] > 0:
            assert after[cat] <= before[cat]

    # the paper's stated limits: fw/nw and hardware improve least
    def improvement(cat):
        return before[cat] / max(0.25, after[cat])

    fixable = min(improvement(Category.MID_CRASH),
                  improvement(Category.LSF))
    unfixable = max(improvement(Category.FIREWALL_NETWORK),
                    improvement(Category.HARDWARE))
    assert fixable > 2 * unfixable
