"""Molecule core: registry, scheduling, invocation, DAGs, the facade."""

from repro.core.billing import BillingLedger, BillingSummary, LedgerEntry
from repro.core.cluster import GlobalManager, WorkerInfo
from repro.core.dag import (
    Chain,
    ChainResult,
    ChainStage,
    DagEdge,
    DagEngine,
    DagRunResult,
    FunctionDag,
    alexa_tree,
    run_fpga_chain,
)
from repro.core.executor import Command, Executor, ExecutorClient
from repro.core.gateway import ApiGateway
from repro.core.invoker import Invoker
from repro.core.records import FunctionInstance, InvocationResult
from repro.core.keepalive import FpgaImagePlanner, ImagePlan, WarmPool
from repro.core.molecule import MoleculeRuntime
from repro.core.registry import FunctionDef, FunctionRegistry, WorkProfile
from repro.core.scheduler import Scheduler

__all__ = [
    "ApiGateway",
    "BillingLedger",
    "BillingSummary",
    "Chain",
    "DagEdge",
    "DagRunResult",
    "FunctionDag",
    "GlobalManager",
    "WorkerInfo",
    "LedgerEntry",
    "alexa_tree",
    "ChainResult",
    "ChainStage",
    "Command",
    "DagEngine",
    "Executor",
    "ExecutorClient",
    "FpgaImagePlanner",
    "FunctionDef",
    "FunctionInstance",
    "FunctionRegistry",
    "ImagePlan",
    "InvocationResult",
    "Invoker",
    "MoleculeRuntime",
    "Scheduler",
    "WarmPool",
    "WorkProfile",
    "run_fpga_chain",
]
