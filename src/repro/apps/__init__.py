"""Simulated applications: the paper's workloads and use cases."""

from repro.apps.base import SimApp
from repro.apps.browser import BrowserApp
from repro.apps.debugger import InspectionSession, TimeTravelDebugger
from repro.apps.hello import HelloWorldApp
from repro.apps.kvstore import (
    AuroraPersistence,
    ClassicPersistence,
    RedisLikeServer,
)
from repro.apps.lsmtree import AuroraLog, ClassicWal, LsmTree, SSTable
from repro.apps.recordreplay import CheckpointedRecorder, RecordedInput, RrStats
from repro.apps.serverless import (
    DeployedFunction,
    InvocationResult,
    ServerlessFleet,
    ServerlessManager,
    StormReport,
)
from repro.apps.speculation import SpecStats, SpeculativeClient

__all__ = [
    "SimApp",
    "BrowserApp",
    "InspectionSession",
    "TimeTravelDebugger",
    "HelloWorldApp",
    "AuroraPersistence",
    "ClassicPersistence",
    "RedisLikeServer",
    "AuroraLog",
    "ClassicWal",
    "LsmTree",
    "SSTable",
    "CheckpointedRecorder",
    "RecordedInput",
    "RrStats",
    "DeployedFunction",
    "InvocationResult",
    "ServerlessFleet",
    "ServerlessManager",
    "StormReport",
    "SpecStats",
    "SpeculativeClient",
]
