"""Core: versatile dependability's knobs, policies, cost model and
design space — the paper's primary contribution.

Public surface:

- :class:`Constraints`, :class:`CostFunction` — Section 4.3's limits
  and tie-breaking heuristic
- :class:`ConfigPoint`, :class:`Measurement`, :class:`Profile` —
  empirical profile data
- :class:`ScalabilityPolicy`, :class:`PolicyEntry` — Table 2 synthesis
- :class:`ThresholdSwitchPolicy` — Fig. 6's adaptive-replication rule
- knobs: :class:`ReplicationStyleKnob`, :class:`NumReplicasKnob`,
  :class:`CheckpointIntervalKnob` (low-level);
  :class:`ScalabilityKnob`, :class:`AvailabilityKnob` with
  :class:`AvailabilityModel` (high-level)
- :class:`DesignSpace`, :class:`DesignPoint` — Fig. 1/9 model
- :data:`TABLE_1`, :class:`KnobMapping` — the knob-mapping table
"""

from repro.core.cost import Constraints, CostFunction
from repro.core.design_space import DesignPoint, DesignSpace
from repro.core.knobs import (
    AvailabilityKnob,
    AvailabilityModel,
    CheckpointIntervalKnob,
    Knob,
    NumReplicasKnob,
    ReplicationStyleKnob,
    ScalabilityKnob,
)
from repro.core.measurements import ConfigPoint, Measurement, Profile
from repro.core.policies import (
    PolicyEntry,
    ScalabilityPolicy,
    ThresholdSwitchPolicy,
)
from repro.core.realtime import (
    RealTimeEntry,
    RealTimeKnob,
    RealTimePolicy,
    RealTimeRequirement,
    deadline_meet_probability,
)
from repro.core.table1 import (
    APPLICATION_PARAMETERS,
    LOW_LEVEL_KNOBS,
    TABLE_1,
    KnobMapping,
    validate_table,
)

__all__ = [
    "APPLICATION_PARAMETERS",
    "AvailabilityKnob",
    "AvailabilityModel",
    "CheckpointIntervalKnob",
    "ConfigPoint",
    "Constraints",
    "CostFunction",
    "DesignPoint",
    "DesignSpace",
    "Knob",
    "KnobMapping",
    "LOW_LEVEL_KNOBS",
    "Measurement",
    "NumReplicasKnob",
    "PolicyEntry",
    "Profile",
    "RealTimeEntry",
    "RealTimeKnob",
    "RealTimePolicy",
    "RealTimeRequirement",
    "ReplicationStyleKnob",
    "ScalabilityKnob",
    "ScalabilityPolicy",
    "TABLE_1",
    "ThresholdSwitchPolicy",
    "deadline_meet_probability",
    "validate_table",
]
