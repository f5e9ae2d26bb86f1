"""Interpreter-backed twins of the sim and app backends, for parity tests.

The generic :class:`~repro.sim.machine.GpuMachine` interpreter is the
semantic ground truth the fast engine is held to, but it is not a
selectable engine.  These subclasses override only ``_machine``: every
cell runs a fresh ``GpuMachine`` built from the backend's own
``_lowering(spec)``, while the shard planner, the seeds, the session
and the result cache are the production ones.  A parity test therefore
compares ``Session(backend=ReferenceSimBackend())`` against an ordinary
``engine="fast"`` session on the very same shard decomposition.

The backend names differ from ``"sim"``/``"app"``, so a shared result
cache never lets one backend's histogram answer the other's request.
"""

from repro.api import SimBackend
from repro.apps import AppBackend
from repro.sim import GpuMachine


class _Interpreted:
    def _machine(self, spec):
        intensity, shuffle = self._lowering(spec)
        return GpuMachine(spec.test, spec.chip, intensity=intensity,
                          shuffle_placement=shuffle)


class ReferenceSimBackend(_Interpreted, SimBackend):
    name = "sim:reference"


class ReferenceAppBackend(_Interpreted, AppBackend):
    name = "app:reference"
