"""Axiomatic framework: events, relations, executions, cat models."""

from .cat import CompiledCatModel, IndexedExecution, compile_model
from .dot import to_dot, weak_witness_dot
from .enumerate import (AllowedStates, allowed_final_states,
                        enumerate_allowed, enumerate_executions)
from .events import Event, FENCE, READ, WRITE
from .execution import CandidateExecution
from .relation import EventIndex, IndexedRelation, Relation

__all__ = [
    "CompiledCatModel", "IndexedExecution", "compile_model",
    "to_dot", "weak_witness_dot",
    "AllowedStates", "allowed_final_states",
    "enumerate_allowed", "enumerate_executions",
    "Event", "FENCE", "READ", "WRITE",
    "CandidateExecution",
    "EventIndex", "IndexedRelation", "Relation",
]
