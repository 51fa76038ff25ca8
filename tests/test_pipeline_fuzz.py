"""Property-based fuzzing of the VLIW pipeline simulator.

Random instruction sequences must never violate the machine's basic
invariants: issue bounded below by slot pressure, monotone in work,
deterministic, and consistent under extrapolation.  The single-pass,
int-indexed scoreboard must also reproduce, cycle for cycle, the
original dict-keyed scoreboard kept below as the oracle, which ran
from scratch once per requested iteration count.
"""

from dataclasses import replace
from typing import Dict, List, Sequence

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hw.spec import GAUDI2_SPEC, DType, VectorEngineSpec
from repro.tpc.isa import Instruction, MemoryKind, Opcode, Slot
from repro.tpc import pipeline
from repro.tpc.pipeline import BRANCH_PENALTY, VliwPipeline

_PIPE = VliwPipeline()


def _oracle_exact(
    spec: VectorEngineSpec, body: Sequence[Instruction], iterations: int
) -> float:
    """The original scoreboard: dict-keyed state, one run per count."""
    ready: Dict[str, int] = {}
    last_read: Dict[str, int] = {}
    last_write_issue: Dict[str, int] = {}
    slot_free: Dict[Slot, int] = {slot: 0 for slot in Slot}
    inflight_random: List[int] = []  # completion cycles of gather loads
    cycle = 0
    prev_issue = 0
    max_outstanding = spec.max_outstanding_loads
    random_latency = spec.random_load_latency
    decoded = [
        (
            instr.sources,
            instr.dest,
            instr.slot,
            instr.memory_kind is MemoryKind.RANDOM_LOAD,
            instr.latency,
            instr.opcode is Opcode.LOOP_END,
        )
        for instr in body
    ]
    for _ in range(iterations):
        for sources, dest, slot, is_random_load, latency, is_loop_end in decoded:
            earliest = prev_issue
            for src in sources:
                earliest = max(earliest, ready.get(src, 0))
            if dest is not None:
                earliest = max(earliest, last_read.get(dest, 0))
                earliest = max(earliest, last_write_issue.get(dest, -1) + 1)
            earliest = max(earliest, slot_free[slot])
            if is_random_load:
                inflight_random = [c for c in inflight_random if c > earliest]
                while len(inflight_random) >= max_outstanding:
                    earliest = min(inflight_random)
                    inflight_random = [c for c in inflight_random if c > earliest]
            issue = earliest
            if is_random_load:
                latency = random_latency
                inflight_random.append(issue + latency)
            if dest is not None:
                ready[dest] = issue + latency
                last_write_issue[dest] = issue
            for src in sources:
                last_read[src] = max(last_read.get(src, 0), issue)
            slot_free[slot] = issue + 1
            if is_loop_end:
                issue += BRANCH_PENALTY
            prev_issue = issue
            cycle = max(cycle, issue + 1)
    return float(cycle)


def _oracle_total(
    spec: VectorEngineSpec, body: Sequence[Instruction], iterations: int
) -> float:
    """``simulate``'s total cycles with a from-scratch oracle run per
    checkpoint (the widened gather warm-up included)."""
    gathers_per_trip = sum(1 for i in body if i.memory_kind is MemoryKind.RANDOM_LOAD)
    warmup = pipeline._WARMUP_ITERS
    if gathers_per_trip:
        window_trips = -(-spec.max_outstanding_loads // gathers_per_trip)
        warmup = max(warmup, window_trips + 8)
    sample = warmup + pipeline._MEASURE_ITERS
    if iterations <= sample:
        return _oracle_exact(spec, body, iterations)
    warm = _oracle_exact(spec, body, warmup)
    warm_plus = _oracle_exact(spec, body, sample)
    steady = (warm_plus - warm) / pipeline._MEASURE_ITERS
    return warm_plus + steady * (iterations - sample)

_OPCODES = [
    Opcode.LD_TNSR, Opcode.LD_G, Opcode.ST_TNSR,
    Opcode.ADD, Opcode.MUL, Opcode.MAC, Opcode.MOV,
    Opcode.S_ADD,
]


@st.composite
def instruction(draw):
    opcode = draw(st.sampled_from(_OPCODES))
    registers = [f"v{i}" for i in range(8)]
    dest = None
    sources = ()
    access = 0
    if opcode in (Opcode.LD_TNSR, Opcode.LD_G):
        dest = draw(st.sampled_from(registers + [None]))
        access = draw(st.sampled_from([32, 64, 128, 256]))
    elif opcode is Opcode.ST_TNSR:
        sources = (draw(st.sampled_from(registers)),)
        access = 256
    elif opcode is Opcode.S_ADD:
        dest = draw(st.sampled_from(registers))
    else:
        dest = draw(st.sampled_from(registers))
        n_sources = draw(st.integers(1, 2))
        sources = tuple(draw(st.sampled_from(registers)) for _ in range(n_sources))
    return Instruction(
        opcode=opcode, dest=dest, sources=sources, dtype=DType.BF16,
        access_bytes=access,
    )


bodies = st.lists(instruction(), min_size=1, max_size=12)


class TestPipelineInvariants:
    @given(body=bodies, iterations=st.integers(1, 40))
    @settings(max_examples=80, deadline=None)
    def test_cycles_bounded_below_by_slot_pressure(self, body, iterations):
        result = _PIPE.simulate(body, iterations)
        for slot in Slot:
            slot_instructions = sum(1 for i in body if i.slot is slot)
            assert result.total_cycles >= slot_instructions * iterations

    @given(body=bodies, iterations=st.integers(1, 30))
    @settings(max_examples=60, deadline=None)
    def test_cycles_monotone_in_iterations(self, body, iterations):
        shorter = _PIPE.simulate(body, iterations).total_cycles
        longer = _PIPE.simulate(body, iterations + 5).total_cycles
        assert longer >= shorter

    @given(body=bodies, iterations=st.integers(1, 30))
    @settings(max_examples=60, deadline=None)
    def test_deterministic(self, body, iterations):
        first = _PIPE.simulate(body, iterations)
        second = _PIPE.simulate(body, iterations)
        assert first.total_cycles == second.total_cycles

    @given(body=bodies)
    @settings(max_examples=40, deadline=None)
    def test_extrapolation_close_to_exact(self, body):
        """The steady-state shortcut must track the exact simulation."""
        exact = _PIPE._simulate_exact(body, 120)
        estimated = _PIPE.simulate(body, 120).total_cycles
        assert abs(estimated - exact) / exact < 0.2

    @given(body=bodies, iterations=st.integers(1, 20))
    @settings(max_examples=40, deadline=None)
    def test_accounting_non_negative(self, body, iterations):
        result = _PIPE.simulate(body, iterations)
        assert result.bytes_per_iteration >= 0
        assert result.moved_bytes_per_iteration >= result.bytes_per_iteration
        assert result.flops_per_iteration >= 0


#: Gaudi-2's TPC, plus a narrow gather window that saturates within a
#: few trips of any gather body.
_SPECS = [GAUDI2_SPEC.vector, replace(GAUDI2_SPEC.vector, max_outstanding_loads=3)]


@st.composite
def loop_bodies(draw):
    """Random bodies, some closed by a taken loop branch."""
    body = draw(bodies)
    if draw(st.booleans()):
        body = body + [Instruction(opcode=Opcode.LOOP_END)]
    return body


@st.composite
def gather_bodies(draw):
    """Bodies with at least one LD_G, so the gather warm-up is widened."""
    body = draw(loop_bodies())
    gather = Instruction(
        opcode=Opcode.LD_G, dest=draw(st.sampled_from(["v0", "v1", None])),
        access_bytes=draw(st.sampled_from([32, 64, 256])),
    )
    at = draw(st.integers(0, len(body)))
    return body[:at] + [gather] + body[at:]


class TestSinglePassOracle:
    """The single-pass scoreboard equals the original two-run one."""

    @pytest.mark.parametrize("spec", _SPECS, ids=["gaudi2", "window3"])
    @given(body=loop_bodies(), first=st.integers(0, 60), extra=st.integers(0, 60))
    @settings(max_examples=60, deadline=None)
    def test_checkpoints_equal_oracle(self, spec, body, first, extra):
        pipe = VliwPipeline(spec)
        second = first + extra
        assert pipe._simulate_checkpoints(body, [second]) == [
            _oracle_exact(spec, body, second)
        ]
        assert pipe._simulate_checkpoints(body, [first, second]) == [
            _oracle_exact(spec, body, first),
            _oracle_exact(spec, body, second),
        ]

    @pytest.mark.parametrize("spec", _SPECS, ids=["gaudi2", "window3"])
    @given(body=gather_bodies(), iterations=st.integers(1, 400))
    @settings(max_examples=60, deadline=None)
    def test_gather_totals_equal_oracle(self, spec, body, iterations):
        result = VliwPipeline(spec).simulate(body, iterations)
        assert result.total_cycles == _oracle_total(spec, body, iterations)

    @given(body=loop_bodies(), iterations=st.integers(1, 400))
    @settings(max_examples=60, deadline=None)
    def test_totals_equal_oracle(self, body, iterations):
        result = _PIPE.simulate(body, iterations)
        assert result.total_cycles == _oracle_total(_PIPE.spec, body, iterations)
