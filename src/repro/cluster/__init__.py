"""Simulated distributed-memory multicomputer substrate.

The paper ran on an 80-node IBM SP2; this environment has one core and no
MPI, so the cluster is *simulated*: rank programs are coroutines scheduled
deterministically with per-rank virtual clocks priced by a
:class:`~repro.cluster.model.MachineModel` (see DESIGN.md §6 for the exact
timing semantics).  Real data flows through the simulated messages, so
algorithm correctness is end-to-end testable while timing is exactly the
paper's analytic regime.
"""

from .backend import (
    BACKENDS,
    Backend,
    BackendRunResult,
    MPBackend,
    SimBackend,
    make_backend,
)
from .collectives import gather
from .context import RankContext, payload_nbytes
from .events import (
    ANY_TAG,
    ComputeOp,
    IrecvOp,
    IsendOp,
    Op,
    RecvOp,
    Request,
    SendOp,
    SendRecvOp,
    WaitOp,
)
from .hypercube import is_power_of_two, keeps_low_half, log2_int
from .model import (
    ETHERNET_CLUSTER,
    IDEALIZED,
    MODERN_CLUSTER,
    PRESETS,
    SP2,
    SP2_FAST_NET,
    SP2_SLOW_NET,
    T3E,
    MachineModel,
)
from .protocol import (
    BaseRankContext,
    EncodedPayload,
    decode_payload,
    drive,
    encode_payload,
)
from .explore import (
    EXPLORE_REPORT_SCHEMA,
    Explorer,
    ExploreReport,
    ExploreScenario,
    InterleavingResult,
    default_fault_plan,
)
from .run_timeline import TIMELINE_SCHEMA, RunTimeline, schedule_meta
from .schedule_policy import (
    ADVERSARIAL_MODES,
    POLICIES,
    SCHED_TRACE_SCHEMA,
    AdversarialPolicy,
    DeterministicPolicy,
    ForcedPrefixPolicy,
    RandomPolicy,
    ReplayPolicy,
    SchedulePolicy,
    load_trace,
    make_policy,
)
from .simulator import Simulator, TraceEvent
from .stats import PRE_STAGE, RankStats, RunResult, StageStats, merge_counters

__all__ = [
    "ADVERSARIAL_MODES",
    "ANY_TAG",
    "AdversarialPolicy",
    "BACKENDS",
    "Backend",
    "DeterministicPolicy",
    "EXPLORE_REPORT_SCHEMA",
    "ExploreReport",
    "ExploreScenario",
    "Explorer",
    "ForcedPrefixPolicy",
    "InterleavingResult",
    "POLICIES",
    "RandomPolicy",
    "ReplayPolicy",
    "SCHED_TRACE_SCHEMA",
    "SchedulePolicy",
    "default_fault_plan",
    "load_trace",
    "make_policy",
    "schedule_meta",
    "BackendRunResult",
    "BaseRankContext",
    "EncodedPayload",
    "ComputeOp",
    "ETHERNET_CLUSTER",
    "IDEALIZED",
    "MODERN_CLUSTER",
    "MPBackend",
    "MachineModel",
    "Op",
    "PRESETS",
    "PRE_STAGE",
    "RankContext",
    "RankStats",
    "IrecvOp",
    "IsendOp",
    "RecvOp",
    "Request",
    "RunResult",
    "RunTimeline",
    "SP2",
    "SP2_FAST_NET",
    "SP2_SLOW_NET",
    "SendOp",
    "SimBackend",
    "T3E",
    "SendRecvOp",
    "Simulator",
    "StageStats",
    "TIMELINE_SCHEMA",
    "TraceEvent",
    "WaitOp",
    "decode_payload",
    "drive",
    "encode_payload",
    "gather",
    "is_power_of_two",
    "keeps_low_half",
    "log2_int",
    "make_backend",
    "merge_counters",
    "payload_nbytes",
]
