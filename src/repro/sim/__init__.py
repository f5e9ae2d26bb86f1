"""Operational GPU simulator: chips, memory system, thread engines.

:class:`GpuMachine`'s generic per-instruction interpreter
(:mod:`repro.sim.engine`) is the semantic ground truth.  Two engines
execute litmus iterations on top of it:

* ``fast`` — the compile-once/run-many specialisation of
  :mod:`repro.sim.compile`, bit-identical to :class:`GpuMachine` by
  property-tested contract and several times faster;
* ``batch`` — the numpy structure-of-arrays lowering of
  :mod:`repro.sim.batch`: whole shards execute in lockstep, another
  order of magnitude faster again.  Distribution-equivalent rather than
  bit-identical (a documented seeded RNG-stream-break) and gated on the
  optional ``repro[batch]`` dependency; ``fast`` is the parity
  reference its tests compare against.

Pick one per run via :func:`run_iterations`'s ``engine`` argument, the
``engine`` field of :class:`repro.api.RunSpec`, or the CLI's
``--engine``; :func:`~repro.sim.engine.resolve_engine` applies the
``REPRO_ENGINE`` environment variable and otherwise
:func:`~repro.sim.engine.default_engine`: ``batch`` when numpy is
importable, ``fast`` without it.  :class:`GpuMachine` itself is not an
engine choice: the parity tests and the engine benchmarks drive it
directly.
"""

from .batch import BatchCell, compile_batch_cell, have_numpy
from .chip import (AMD_RESULT_CHIPS, CHIPS, ChipProfile,
                   NVIDIA_RESULT_CHIPS, RESULT_CHIPS, chip)
from .compile import CompiledCell, compile_cell
from .engine import (ENGINES, PendingOp, ThreadEngine, default_engine,
                     resolve_engine, run_batch)
from .machine import GpuMachine, run_iterations
from .memory import MemorySystem

__all__ = [
    "AMD_RESULT_CHIPS", "CHIPS", "ChipProfile", "NVIDIA_RESULT_CHIPS",
    "RESULT_CHIPS", "chip",
    "BatchCell", "compile_batch_cell", "have_numpy",
    "CompiledCell", "compile_cell",
    "ENGINES", "PendingOp", "ThreadEngine", "default_engine",
    "resolve_engine", "run_batch",
    "GpuMachine", "run_iterations",
    "MemorySystem",
]
