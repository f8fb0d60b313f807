"""Zero-shot physical design and hardware tuning (paper Section 4.1).

A zero-shot cost model in What-If mode predicts how a query's runtime
would change under a hypothetical index — on a database the model has
never seen.  :class:`~repro.tuning.advisor.IndexAdvisor` uses those
predictions, made under :func:`~repro.tuning.advisor.hypothetical_indexes`,
to drive a classical greedy index-selection loop without
executing a single training query on the target database.

:class:`~repro.tuning.hardware.HardwareAdvisor` extends the same
what-if idea to the machine itself: a hardware-aware model re-prices a
workload under candidate machines ("should I buy faster disks?")
without benchmarking hardware nobody has bought yet.
"""

from repro.tuning.advisor import IndexAdvisor
from repro.tuning.hardware import HardwareAdvisor, HardwareRecommendation

__all__ = [
    "HardwareAdvisor",
    "HardwareRecommendation",
    "IndexAdvisor",
]
