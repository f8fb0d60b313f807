"""Ground-truth runtime simulation.

The paper measures real wall-clock runtimes on one Postgres server.  We
replace the server with an analytic runtime model whose coefficients and
functional form are *hidden from every featurization* by default: models
only ever see plan structure, statistics and cardinalities, so learning
the mapping to runtimes is a genuine estimation problem.

Historically there was **one** system (one parameterization) shared by
all databases — the paper's premise that system behaviour transfers
across databases while data characteristics vary.  The hardware-transfer
axis generalizes that: the simulated machine is one of six named
configurations (:func:`get_system_config`), fleet specs can place
every training database on a different machine, and the graph encoding
can optionally expose the machine's coefficients as transferable
features so one model predicts runtimes on hardware it never trained on
(the paper's Section 4.3).
"""

from repro.runtime.simulator import RuntimeSimulator
from repro.runtime.system import (
    SystemParameters,
    available_system_configs,
    get_system_config,
)

__all__ = [
    "RuntimeSimulator",
    "SystemParameters",
    "available_system_configs",
    "get_system_config",
]
