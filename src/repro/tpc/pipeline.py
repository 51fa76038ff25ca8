"""In-order VLIW scoreboard pipeline for the TPC.

The TPC issues instructions in program order, one per issue slot per
cycle (load / store / vector / scalar), with a 4-cycle architectural
result latency.  Because issue is in order and registers are a finite
resource, a loop that reuses the same registers every iteration
serializes on write-after-read hazards -- which is precisely why the
paper's best practice #2 (manual loop unrolling with register renaming)
matters.  The simulator enforces:

* RAW: an instruction issues only when its sources are ready;
* WAR: a write to ``r`` issues only after earlier readers of ``r`` have
  issued;
* WAW: writes to the same register issue in order;
* slot structural hazards: one instruction per slot per cycle;
* in-order issue: instruction *i* never issues before *i - 1*;
* a bounded number of outstanding random (gather) loads, modelling the
  TPC's memory-level-parallelism window;
* a taken-branch penalty at each loop boundary.

Loops are simulated for a warm-up prefix, then the steady-state
cycles-per-iteration is measured and extrapolated, so 24-million-element
STREAM loops cost microseconds to evaluate.  The warm-up is a prefix of
the measured sample, so one scoreboard pass records the cycle count at
both checkpoints.  Each body is decoded once into dense register and
slot indices, and the scoreboard state is plain lists of ints.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from typing import Deque, Dict, List, Sequence

from repro.core.memo import CostCache
from repro.hw.spec import GAUDI2_SPEC, VectorEngineSpec
from repro.tpc.isa import Instruction, MemoryKind, Opcode, Slot

#: Shared scoreboard-simulation memo: kernel bodies are frozen
#: hashable instruction tuples, and launchers are rebuilt per kernel
#: call, so the cache lives at module scope.  Keyed on the two spec
#: fields the scoreboard actually reads, not the (unhashable) spec.
_SIMULATE_CACHE = CostCache("tpc.pipeline", maxsize=2048)

#: Dense index of each issue slot in the scoreboard's slot list.
_SLOT_INDEX = {slot: index for index, slot in enumerate(Slot)}

#: Extra cycles a taken loop-closing branch costs before the next
#: iteration's first instruction can issue.
BRANCH_PENALTY = 1

#: Iterations simulated before measuring the steady state.
_WARMUP_ITERS = 16
#: Iterations over which the steady-state rate is measured.
_MEASURE_ITERS = 32


@dataclass(frozen=True)
class PipelineResult:
    """Outcome of simulating a kernel body on one TPC."""

    iterations: int
    total_cycles: float
    cycles_per_iteration: float
    #: Useful bytes touched per iteration (loads + stores).
    bytes_per_iteration: float
    #: Bytes actually moved per iteration after granularity round-up.
    moved_bytes_per_iteration: float
    flops_per_iteration: float
    instructions_per_iteration: int

    def time_seconds(self, clock_hz: float) -> float:
        return self.total_cycles / clock_hz

    @property
    def total_flops(self) -> float:
        return self.flops_per_iteration * self.iterations

    @property
    def total_bytes(self) -> float:
        return self.bytes_per_iteration * self.iterations

    @property
    def total_moved_bytes(self) -> float:
        return self.moved_bytes_per_iteration * self.iterations


class VliwPipeline:
    """Cycle simulator for one TPC executing a loop body."""

    def __init__(self, spec: VectorEngineSpec = GAUDI2_SPEC.vector) -> None:
        self.spec = spec

    # ------------------------------------------------------------------
    def _simulate_exact(self, body: Sequence[Instruction], iterations: int) -> float:
        """Simulate ``iterations`` repeats of ``body``; returns cycles."""
        return self._simulate_checkpoints(body, (iterations,))[0]

    def _simulate_checkpoints(
        self, body: Sequence[Instruction], checkpoints: Sequence[int]
    ) -> List[float]:
        """One scoreboard pass over ``checkpoints[-1]`` repeats of ``body``.

        Returns the cycle count after each of the ascending
        ``checkpoints`` iteration counts: a shorter run is a prefix of
        a longer one, so one pass yields every checkpoint.
        """
        max_outstanding = self.spec.max_outstanding_loads
        random_latency = self.spec.random_load_latency
        # Hazard metadata is static per instruction: decode registers to
        # dense list indices and slots to ints once per body, so the
        # scoreboard loop runs on plain lists and ints.
        registers: Dict[str, int] = {}
        decoded = []
        for instr in body:
            is_random_load = instr.memory_kind is MemoryKind.RANDOM_LOAD
            decoded.append((
                tuple(registers.setdefault(src, len(registers)) for src in instr.sources),
                -1 if instr.dest is None else registers.setdefault(instr.dest, len(registers)),
                _SLOT_INDEX[instr.slot],
                is_random_load,
                random_latency if is_random_load else instr.latency,
                BRANCH_PENALTY if instr.opcode is Opcode.LOOP_END else 0,
            ))
        ready = [0] * len(registers)
        last_read = [0] * len(registers)
        last_write_issue = [-1] * len(registers)
        slot_free = [0] * len(_SLOT_INDEX)
        # Completion cycles of in-flight gather loads.  Issue is in
        # order, so they are appended in ascending order.
        inflight: Deque[int] = deque()
        # Issue cycle of the previous instruction (plus its branch
        # penalty).  Issue cycles never decrease, so every earlier read
        # of a register issued at or before the current instruction, and
        # the cycle count so far is ``issue + 1``.
        issue = 0
        cycles: List[float] = []
        done = 0
        for target in checkpoints:
            for _ in range(target - done):
                for sources, dest, slot, is_random_load, latency, penalty in decoded:
                    earliest = issue
                    for src in sources:
                        if ready[src] > earliest:
                            earliest = ready[src]
                    if dest >= 0:
                        if last_read[dest] > earliest:
                            earliest = last_read[dest]
                        if last_write_issue[dest] >= earliest:
                            earliest = last_write_issue[dest] + 1
                    if slot_free[slot] > earliest:
                        earliest = slot_free[slot]
                    if is_random_load:
                        while inflight and inflight[0] <= earliest:
                            inflight.popleft()
                        while len(inflight) >= max_outstanding:
                            earliest = inflight.popleft()
                            while inflight and inflight[0] <= earliest:
                                inflight.popleft()
                        inflight.append(earliest + latency)
                    issue = earliest
                    if dest >= 0:
                        ready[dest] = issue + latency
                        last_write_issue[dest] = issue
                    for src in sources:
                        last_read[src] = issue
                    slot_free[slot] = issue + 1
                    issue += penalty
            done = target
            cycles.append(float(issue + 1) if done and decoded else 0.0)
        return cycles

    # ------------------------------------------------------------------
    def simulate(self, body: Sequence[Instruction], iterations: int) -> PipelineResult:
        """Simulate a loop of ``iterations`` copies of ``body``.

        ``body`` is one loop iteration *after* unrolling, i.e. the
        instruction sequence between two backward branches.
        """
        if iterations <= 0:
            raise ValueError("iterations must be positive")
        if not body:
            raise ValueError("body must contain at least one instruction")
        key = (
            self.spec.max_outstanding_loads,
            self.spec.random_load_latency,
            tuple(body),
            iterations,
        )
        cached = _SIMULATE_CACHE.get(key)
        if cached is not None:
            return cached
        # The warm-up must outlast the outstanding-gather window, or a
        # gather loop would be extrapolated from its pre-saturation rate.
        gathers_per_trip = sum(
            1 for i in body if i.memory_kind is MemoryKind.RANDOM_LOAD
        )
        warmup = _WARMUP_ITERS
        if gathers_per_trip:
            window_trips = -(-self.spec.max_outstanding_loads // gathers_per_trip)
            warmup = max(warmup, window_trips + 8)
        sample = warmup + _MEASURE_ITERS
        if iterations <= sample:
            total = self._simulate_exact(body, iterations)
        else:
            warm, warm_plus = self._simulate_checkpoints(body, (warmup, sample))
            steady = (warm_plus - warm) / _MEASURE_ITERS
            total = warm_plus + steady * (iterations - sample)

        useful = 0.0
        moved = 0.0
        flops = 0.0
        granule = GAUDI2_SPEC.memory.min_access_bytes
        for instr in body:
            flops += instr.flops
            if instr.access_bytes > 0 and instr.memory_kind is not MemoryKind.NONE:
                useful += instr.access_bytes
                moved += granule * math.ceil(instr.access_bytes / granule)
        result = PipelineResult(
            iterations=iterations,
            total_cycles=total,
            cycles_per_iteration=total / iterations,
            bytes_per_iteration=useful,
            moved_bytes_per_iteration=moved,
            flops_per_iteration=flops,
            instructions_per_iteration=len(body),
        )
        _SIMULATE_CACHE.put(key, result)
        return result
