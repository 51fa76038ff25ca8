"""Llama-3.1 decoder cost models (Table 3; Figures 12, 13, 17).

The model walks one decoder layer's operator list with the device's
GEMM/attention/collective models and accumulates time and engine
activity.  Prefill runs dense fused attention; decode runs either the
serving backend's static KV-cache attention (the optimum-habana /
TensorRT-LLM setup of Section 3.5) or one of the PagedAttention
implementations (the vLLM setup of Section 4.2).
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence, Tuple

from repro.core.memo import CostCache
from repro.hw.device import Device
from repro.hw.power import ActivityAccumulator, PowerModel
from repro.hw.spec import DType
from repro.kernels.attention import AttentionConfig, attention_time
from repro.kernels.elementwise import activation_cost, layernorm_cost
from repro.kernels.paged_attention import (
    DEFAULT_BLOCK_SIZE,
    PagedAttentionStats,
    a100_paged_attention,
    build_paged_time_fn,
    vllm_base_paged_attention,
    vllm_opt_paged_attention,
)
from repro.models.tensor_parallel import CommEvent, TensorParallelConfig

#: Per-layer dispatch overhead with CUDA Graphs / HPU Graphs enabled.
_LAYER_DISPATCH = 1.5e-6

#: Per-layer dispatch overhead in eager mode (per-op host launches).
_LAYER_DISPATCH_EAGER = 45e-6


class _StepperCache(CostCache):
    """Closure-valued :class:`CostCache` without memo-equivalence
    sampling: two independently compiled steppers are bit-identical in
    what they compute but never compare equal as objects, so the
    recompute-and-compare audit would always flag a false mismatch.
    Registry membership (``clear_caches`` / ``cache_stats``) and the
    LRU bound are inherited."""

    def get(self, key):
        from repro.core import memo

        if not memo.memoization_enabled():
            return None
        data = self._data
        value = data.get(key)
        if value is None:
            self.misses += 1
            return None
        data.move_to_end(key)
        self.hits += 1
        return value

    def put(self, key, value) -> None:
        from repro.core import memo

        if not memo.memoization_enabled():
            return
        data = self._data
        if key in data:
            data.move_to_end(key)
            data[key] = value
            return
        if len(data) >= self.maxsize:
            data.popitem(last=False)
            self.evictions += 1
        data[key] = value


#: Cross-instance compiled decode steppers: fleet and figure sweeps
#: build many short-lived engines over the same (device, config) pair,
#: and a drained batch walks every batch size down to 1 -- sharing the
#: compiled closures turns those rebuilds into dictionary hits.
_SHARED_STEPPERS = _StepperCache("llama.decode_stepper", maxsize=4096)

#: Cross-instance phase-estimate caches, keyed by the same pricing
#: identity as the shared steppers (device singleton, frozen config,
#: graphs/bucket knobs; tensor-parallel models stay instance-private
#: because their collective library is not part of the key).  The dict
#: holds strong references so ``clear_caches`` keeps finding them after
#: the models that created them are gone.
_SHARED_PHASE_CACHES: dict = {}


def _phase_caches(device, config, use_graphs: bool, static_bucket: int):
    """The (prefill, decode-terms, decode-attn) caches for one pricing
    identity, created on first use and shared by every later model with
    the same identity."""
    key = (device, config, use_graphs, static_bucket)
    caches = _SHARED_PHASE_CACHES.get(key)
    if caches is None:
        label = f"{device.name}/{config.name}"
        if not use_graphs or static_bucket != 1:
            label += f"/graphs={use_graphs}/bucket={static_bucket}"
        caches = (
            CostCache(f"llama.prefill[{label}]", maxsize=2048),
            CostCache(f"llama.decode_terms[{label}]", maxsize=1024),
            CostCache(f"llama.decode_attn[{label}]", maxsize=8192),
        )
        _SHARED_PHASE_CACHES[key] = caches
    return caches


class DecodeAttention(enum.Enum):
    """Which decode-attention path the serving backend uses."""

    STATIC = "static"          # contiguous KV cache (optimum-habana / TRT-LLM)
    PAGED_BASE = "paged-base"  # Gaudi vLLM fork baseline (BlockTable)
    PAGED_OPT = "paged-opt"    # optimized BlockList PagedAttention
    PAGED_CUDA = "paged-cuda"  # vLLM's native CUDA kernel


def default_decode_attention(device) -> "DecodeAttention":
    """The decode-attention path a backend's serving stack defaults to.

    Reads the backend's ``decode_attention`` capability string (part of
    the :class:`repro.hw.backend.Backend` protocol), so any registered
    platform -- not just the original pair -- picks its natural kernel.
    """
    return DecodeAttention(getattr(device, "decode_attention", "paged-opt"))


@dataclass(frozen=True)
class LlamaConfig:
    """Decoder configuration (Table 3 of the paper)."""

    name: str
    num_layers: int
    hidden_size: int
    intermediate_size: int
    q_heads: int
    kv_heads: int
    vocab_size: int
    dtype: DType = DType.BF16

    def __post_init__(self) -> None:
        for field_name in (
            "num_layers", "hidden_size", "intermediate_size",
            "q_heads", "kv_heads", "vocab_size",
        ):
            if getattr(self, field_name) <= 0:
                raise ValueError(f"{field_name} must be positive")
        if self.hidden_size % self.q_heads != 0:
            raise ValueError("hidden_size must be divisible by q_heads")

    @property
    def head_dim(self) -> int:
        return self.hidden_size // self.q_heads

    @property
    def num_parameters(self) -> float:
        h, i, v = self.hidden_size, self.intermediate_size, self.vocab_size
        qkv = h * (self.q_heads + 2 * self.kv_heads) * self.head_dim
        o = h * h
        mlp = 3 * h * i
        per_layer = qkv + o + mlp + 2 * h
        return self.num_layers * per_layer + 2 * v * h

    @property
    def weight_bytes(self) -> float:
        return self.num_parameters * self.dtype.itemsize

    def kv_bytes_per_token(self) -> int:
        return 2 * self.kv_heads * self.head_dim * self.dtype.itemsize


LLAMA_3_1_8B = LlamaConfig(
    name="Llama-3.1-8B-Instruct",
    num_layers=32,
    hidden_size=4096,
    intermediate_size=14336,
    q_heads=32,
    kv_heads=8,
    vocab_size=128256,
)

LLAMA_3_1_70B = LlamaConfig(
    name="Llama-3.1-70B-Instruct",
    num_layers=80,
    hidden_size=8192,
    intermediate_size=28672,
    q_heads=64,
    kv_heads=8,
    vocab_size=128256,
)


@dataclass(frozen=True)
class PhaseEstimate:
    """One phase (prefill, or a batch of decode steps).

    ``collectives`` lists the per-layer collectives the phase priced,
    in issue order, as ``(op, seconds, bytes)`` events -- empty when
    there is no exchange (TP degree 1, or fewer than two survivors).
    Observers (the serving engine's metrics and spans) read them here,
    so pricing itself has no side effects and always memoizes.
    """

    time: float
    activity: ActivityAccumulator
    collectives: Tuple[CommEvent, ...] = ()


@dataclass(frozen=True)
class DecodeBatchStats:
    """Order-independent aggregates of one decode batch's KV contexts.

    Decode-step cost depends on the per-request context lengths only
    through four integer aggregates (sum, KV-block sum, max, batch), so
    the serving engine can maintain these incrementally instead of
    rebuilding a length list every step.  ``residues`` is a histogram
    of ``context_len % block_size`` supporting O(block_size)
    :meth:`advanced` updates: when every request grows one token, only
    the ``residue == 0`` requests (exactly at a block boundary) start a
    new KV block.  All fields are integers, so the incremental path is
    bit-identical to a from-scratch rebuild.
    """

    batch: int
    total_context: int
    total_blocks: int
    max_context: int
    block_size: int = DEFAULT_BLOCK_SIZE
    residues: Tuple[int, ...] = ()

    @classmethod
    def from_context_lens(
        cls, context_lens: Sequence[int], block_size: int = DEFAULT_BLOCK_SIZE
    ) -> "DecodeBatchStats":
        lens = [int(c) for c in context_lens]
        if not lens:
            raise ValueError("need at least one context length")
        if any(c <= 0 for c in lens):
            raise ValueError("context lengths must be positive")
        residues = [0] * block_size
        total = 0
        blocks = 0
        longest = 0
        for c in lens:
            total += c
            blocks += (c + block_size - 1) // block_size
            if c > longest:
                longest = c
            residues[c % block_size] += 1
        return cls(
            batch=len(lens),
            total_context=total,
            total_blocks=blocks,
            max_context=longest,
            block_size=block_size,
            residues=tuple(residues),
        )

    def advanced(self) -> "DecodeBatchStats":
        """The aggregates after every request grows by one token."""
        if not self.residues:
            raise ValueError("advanced() requires the residue histogram")
        residues = self.residues
        return DecodeBatchStats(
            batch=self.batch,
            total_context=self.total_context + self.batch,
            total_blocks=self.total_blocks + residues[0],
            max_context=self.max_context + 1,
            block_size=self.block_size,
            residues=(residues[-1],) + residues[:-1],
        )


@dataclass(frozen=True)
class GenerationEstimate:
    """End-to-end generation of ``output_len`` tokens for a batch."""

    device: str
    config_name: str
    batch: int
    input_len: int
    output_len: int
    prefill_time: float
    decode_time: float
    average_power: float

    @property
    def total_time(self) -> float:
        return self.prefill_time + self.decode_time

    @property
    def total_tokens(self) -> int:
        return self.batch * self.output_len

    @property
    def tokens_per_second(self) -> float:
        return self.total_tokens / self.total_time if self.total_time > 0 else 0.0

    @property
    def energy_joules(self) -> float:
        return self.average_power * self.total_time

    @property
    def tokens_per_joule(self) -> float:
        return self.total_tokens / self.energy_joules if self.energy_joules > 0 else 0.0


class LlamaCostModel:
    """Per-phase cost model of one Llama configuration on one device."""

    def __init__(
        self,
        config: LlamaConfig,
        device: Device,
        tp: Optional[TensorParallelConfig] = None,
        use_graphs: bool = True,
        static_bucket: int = 1,
    ) -> None:
        """``use_graphs`` models the CUDA Graphs / HPU Graphs tuning
        knob of Section 3.5: captured graphs replay with a tiny
        per-layer dispatch, eager mode pays per-op host launches.

        ``static_bucket`` models optimum-habana's static-shape
        bucketing: Gaudi's compiled graphs are shape-specialized, so
        the static KV cache is padded up to the next multiple of the
        bucket (1 = exact shapes, i.e. no bucketing cost).
        """
        if static_bucket < 1:
            raise ValueError("static_bucket must be >= 1")
        self.config = config
        self.device = device
        self.tp = tp or TensorParallelConfig(degree=1)
        self.use_graphs = use_graphs
        self.static_bucket = static_bucket
        self.tp.shard(config.q_heads, "q_heads")
        if self.tp.degree > 1:
            self.tp.shard(config.kv_heads, "kv_heads")
        # Shape-keyed memo caches over the phase estimates.  Cached
        # PhaseEstimates are shared between calls, so callers must
        # treat them (and their activity accumulators) as read-only.
        # Tensor-parallel degree 1 shares the cache *instances* across
        # models with the same pricing identity (sweeps and fleets
        # build many short-lived models over few device/config pairs).
        if self.tp.degree == 1:
            (
                self._prefill_cache,
                self._decode_terms_cache,
                self._decode_attn_cache,
            ) = _phase_caches(device, config, use_graphs, static_bucket)
        else:
            label = f"{device.name}/{config.name}/tp={self.tp.degree}"
            self._prefill_cache = CostCache(f"llama.prefill[{label}]", maxsize=2048)
            self._decode_terms_cache = CostCache(f"llama.decode_terms[{label}]", maxsize=1024)
            self._decode_attn_cache = CostCache(f"llama.decode_attn[{label}]", maxsize=8192)
        # Compiled per-(attention, batch) step closures for the
        # vectorized engine core; pure in the aggregates, so a plain
        # dict (no audit interplay) is sound.  Cross-instance reuse goes
        # through _SHARED_STEPPERS (see decode_stepper).
        self._stepper_cache: dict = {}

    @property
    def _layer_dispatch(self) -> float:
        return _LAYER_DISPATCH if self.use_graphs else _LAYER_DISPATCH_EAGER

    # -- helpers ---------------------------------------------------------
    def _gemm(
        self, acc: ActivityAccumulator, m: int, k: int, n: int
    ) -> float:
        result = self.device.gemm(m, k, n, self.config.dtype)
        peak = self.device.peak_matrix_flops
        dtype_peak = self.device.spec.matrix.peak(self.config.dtype)
        acc.add_matrix(result.flops / dtype_peak, result.active_mac_fraction)
        itemsize = self.config.dtype.itemsize
        traffic = itemsize * (k * n + m * k + m * n)
        acc.add_memory(traffic / self.device.peak_bandwidth)
        del peak
        return result.time

    def _allreduce(
        self, acc: ActivityAccumulator, collectives: list, size_bytes: float
    ) -> float:
        event = self.tp.allreduce(size_bytes)
        if event is None:
            return 0.0
        collectives.append(event)
        acc.add_comm(event[1])
        return event[1]

    def _elementwise(self, acc: ActivityAccumulator, cost) -> float:
        stream_bw = (
            self.device.spec.memory.bandwidth
            * self.device.spec.memory.stream_efficiency
        )
        time = max(cost.compute_time, (cost.input_bytes + cost.output_bytes) / stream_bw)
        acc.add_vector(cost.compute_time)
        acc.add_memory(
            (cost.input_bytes + cost.output_bytes) / self.device.peak_bandwidth
        )
        return time

    # -- phases ----------------------------------------------------------
    def prefill(self, batch: int, seq_len: int) -> PhaseEstimate:
        """Process the whole prompt; produces the first token."""
        if batch <= 0 or seq_len <= 0:
            raise ValueError("batch and seq_len must be positive")
        # Caches key on the fabric's fault state (None when static).
        key = (batch, seq_len, self.tp.health_key())
        phase = self._prefill_cache.get(key)
        if phase is None:
            phase = self._prefill_uncached(batch, seq_len)
            self._prefill_cache.put(key, phase)
        return phase

    def _prefill_uncached(self, batch: int, seq_len: int) -> PhaseEstimate:
        cfg, tp = self.config, self.tp
        acc = ActivityAccumulator()
        collectives: list = []
        tokens = batch * seq_len
        hd = cfg.head_dim
        time = 0.0
        # one decoder layer
        time += self._elementwise(acc, layernorm_cost(self.device.spec, tokens * cfg.hidden_size, cfg.dtype))
        qkv_n = tp.shard((cfg.q_heads + 2 * cfg.kv_heads) * hd, "qkv width")
        time += self._gemm(acc, tokens, cfg.hidden_size, qkv_n)
        attn = attention_time(
            self.device,
            AttentionConfig(
                batch=batch,
                q_heads=cfg.q_heads // tp.degree,
                kv_heads=max(1, cfg.kv_heads // tp.degree),
                head_dim=hd,
                seq_q=seq_len,
                seq_kv=seq_len,
                dtype=cfg.dtype,
            ),
        )
        time += attn.time
        acc.add_matrix(
            min(attn.compute_time, attn.time), 1.0
        )
        acc.add_memory(min(attn.memory_time, attn.time))
        time += self._gemm(acc, tokens, tp.shard(cfg.q_heads * hd, "o-proj"), cfg.hidden_size)
        time += self._allreduce(acc, collectives, tokens * cfg.hidden_size * cfg.dtype.itemsize)
        time += self._elementwise(acc, layernorm_cost(self.device.spec, tokens * cfg.hidden_size, cfg.dtype))
        time += self._gemm(acc, tokens, cfg.hidden_size, tp.shard(2 * cfg.intermediate_size, "mlp up"))
        time += self._elementwise(acc, activation_cost(self.device.spec, tokens * cfg.intermediate_size // tp.degree, cfg.dtype))
        time += self._gemm(acc, tokens, tp.shard(cfg.intermediate_size, "mlp down"), cfg.hidden_size)
        time += self._allreduce(acc, collectives, tokens * cfg.hidden_size * cfg.dtype.itemsize)
        time += self._layer_dispatch
        time *= cfg.num_layers
        _scale_activity(acc, cfg.num_layers)
        # LM head for the first token only.
        time += self._gemm(acc, batch, cfg.hidden_size, tp.shard(cfg.vocab_size, "lm head"))
        return PhaseEstimate(time=time, activity=acc, collectives=tuple(collectives))

    def decode_step(
        self,
        batch: int,
        context_len,
        attention: DecodeAttention = DecodeAttention.STATIC,
    ) -> PhaseEstimate:
        """Generate one token per request.

        ``context_len`` is either a single KV length shared by the batch
        or a per-request sequence of lengths (continuous batching).
        """
        if batch <= 0:
            raise ValueError("batch must be positive")
        context_lens = (
            [int(context_len)] * batch
            if isinstance(context_len, (int, float))
            else [int(c) for c in context_len]
        )
        if len(context_lens) != batch:
            raise ValueError("context_len sequence must match batch size")
        if any(c <= 0 for c in context_lens):
            raise ValueError("context lengths must be positive")
        return self.decode_step_stats(
            DecodeBatchStats.from_context_lens(context_lens), attention
        )

    def decode_step_stats(
        self,
        stats: DecodeBatchStats,
        attention: DecodeAttention = DecodeAttention.STATIC,
    ) -> PhaseEstimate:
        """:meth:`decode_step` priced from batch aggregates.

        The serving engine maintains a :class:`DecodeBatchStats`
        incrementally across steps; this entry point skips the
        per-request length walk entirely.  One decode layer splits into
        a batch-level term (everything but attention -- memoized per
        batch size) plus the attention term (memoized per context
        aggregate); the split replays the exact call sequence of the
        monolithic implementation, so times and activity are
        bit-identical whether or not any cache hits.
        """
        terms, collectives = self._decode_terms(stats.batch)
        ln1, qkv, oproj, ar1, ln2, up, act, down, ar2, lm_head = terms
        cfg = self.config
        acc = ActivityAccumulator()
        time = 0.0
        time += ln1[0]
        acc.merge(ln1[1])
        time += qkv[0]
        acc.merge(qkv[1])
        time += self._decode_attention(acc, stats, attention)
        for term_time, term_acc in (oproj, ar1, ln2, up, act, down, ar2):
            time += term_time
            acc.merge(term_acc)
        time += self._layer_dispatch
        time *= cfg.num_layers
        _scale_activity(acc, cfg.num_layers)
        time += lm_head[0]
        acc.merge(lm_head[1])
        return PhaseEstimate(time=time, activity=acc, collectives=collectives)

    def _decode_terms(self, batch: int):
        """``(terms, collectives)``: per-call (time, activity) pairs for
        the non-attention slices of one decode layer plus the LM head,
        and the collectives they priced; memoized per batch size and
        fabric fault state."""
        key = (batch, self.tp.health_key())
        terms = self._decode_terms_cache.get(key)
        if terms is None:
            terms = self._decode_terms_uncached(batch)
            self._decode_terms_cache.put(key, terms)
        return terms

    def _decode_terms_uncached(self, batch: int):
        cfg, tp = self.config, self.tp
        hd = cfg.head_dim
        collectives: list = []

        def term(fn):
            acc = ActivityAccumulator()
            return (fn(acc), acc)

        spec = self.device.spec
        terms = (
            term(lambda acc: self._elementwise(
                acc, layernorm_cost(spec, batch * cfg.hidden_size, cfg.dtype))),
            term(lambda acc: self._gemm(
                acc, batch, cfg.hidden_size,
                tp.shard((cfg.q_heads + 2 * cfg.kv_heads) * hd, "qkv"))),
            term(lambda acc: self._gemm(
                acc, batch, tp.shard(cfg.q_heads * hd, "o-proj"), cfg.hidden_size)),
            term(lambda acc: self._allreduce(
                acc, collectives, batch * cfg.hidden_size * cfg.dtype.itemsize)),
            term(lambda acc: self._elementwise(
                acc, layernorm_cost(spec, batch * cfg.hidden_size, cfg.dtype))),
            term(lambda acc: self._gemm(
                acc, batch, cfg.hidden_size, tp.shard(2 * cfg.intermediate_size, "mlp up"))),
            term(lambda acc: self._elementwise(
                acc, activation_cost(spec, batch * cfg.intermediate_size // tp.degree, cfg.dtype))),
            term(lambda acc: self._gemm(
                acc, batch, tp.shard(cfg.intermediate_size, "mlp down"), cfg.hidden_size)),
            term(lambda acc: self._allreduce(
                acc, collectives, batch * cfg.hidden_size * cfg.dtype.itemsize)),
            term(lambda acc: self._gemm(
                acc, batch, cfg.hidden_size, tp.shard(cfg.vocab_size, "lm head"))),
        )
        return terms, tuple(collectives)

    def _decode_attention(
        self,
        acc: ActivityAccumulator,
        stats: DecodeBatchStats,
        attention: DecodeAttention,
    ) -> float:
        """Merge the decode-attention term for ``stats`` into ``acc``
        and return its time.  Pure in the aggregates (no collective
        calls), so its key carries no fault state."""
        key = (
            attention, stats.batch, stats.total_context,
            stats.total_blocks, stats.max_context, stats.block_size,
        )
        cached = self._decode_attn_cache.get(key)
        if cached is None:
            attn_acc = ActivityAccumulator()
            time = self._decode_attention_uncached(attn_acc, stats, attention)
            cached = (time, attn_acc)
            self._decode_attn_cache.put(key, cached)
        acc.merge(cached[1])
        return cached[0]

    def _decode_attention_uncached(
        self,
        acc: ActivityAccumulator,
        stats: DecodeBatchStats,
        attention: DecodeAttention,
    ) -> float:
        cfg, tp = self.config, self.tp
        batch = stats.batch
        kv_heads = max(1, cfg.kv_heads // tp.degree)
        q_heads = cfg.q_heads // tp.degree
        if attention is DecodeAttention.STATIC:
            # Static bucketed KV cache: padded to the longest context,
            # then up to the shape bucket the compiled graph was built
            # for (optimum-habana's bucketing).
            padded_len = stats.max_context
            bucket = self.static_bucket
            padded_len = ((padded_len + bucket - 1) // bucket) * bucket
            kv_bytes = (
                2.0 * batch * kv_heads * cfg.head_dim * padded_len
                * cfg.dtype.itemsize
            )
            stream_bw = (
                self.device.spec.memory.bandwidth
                * self.device.spec.memory.stream_efficiency
            )
            time = kv_bytes / stream_bw
            acc.add_memory(kv_bytes / self.device.peak_bandwidth)
            flops = 4.0 * batch * q_heads * padded_len * cfg.head_dim
            acc.add_matrix(flops / self.device.spec.matrix.peak(cfg.dtype), 0.5)
            return time
        paged = PagedAttentionStats(
            batch=batch,
            total_context=stats.total_context,
            total_blocks=stats.total_blocks,
            max_context=stats.max_context,
            q_heads=q_heads,
            kv_heads=kv_heads,
            head_dim=cfg.head_dim,
            block_size=stats.block_size,
            dtype=cfg.dtype,
        )
        if attention is DecodeAttention.PAGED_BASE:
            result = vllm_base_paged_attention(paged, self.device.spec)
        elif attention is DecodeAttention.PAGED_OPT:
            result = vllm_opt_paged_attention(paged, self.device.spec)
        elif attention is DecodeAttention.PAGED_CUDA:
            result = a100_paged_attention(paged, self.device.spec)
        else:
            raise ValueError(f"unknown decode attention {attention!r}")
        acc.add_memory(paged.kv_bytes / self.device.peak_bandwidth)
        acc.add_vector(min(result.gather_time, result.time))
        return result.time

    # -- vectorized-engine fast path ---------------------------------------
    def _shared_stepper_key(
        self, attention: "DecodeAttention", batch: int, block_size: int
    ):
        """Cross-instance cache key, or None when the model cannot share.

        A compiled stepper depends only on the device (an identity-
        hashable cached singleton), the frozen config, the graphs/bucket
        tuning knobs, and the call shape -- provided there is no tensor
        parallelism (a TP library's collective costs are not part of
        the key, so sharded models keep instance-private caches).
        """
        if self.tp.degree != 1:
            return None
        return (
            self.device, self.config, self.use_graphs, self.static_bucket,
            attention, batch, block_size,
        )

    def decode_stepper(
        self,
        batch: int,
        attention: DecodeAttention,
        block_size: int = DEFAULT_BLOCK_SIZE,
    ) -> Callable[[int, int, int, ActivityAccumulator], float]:
        """Compile a one-decode-step pricing closure for a fixed batch.

        The returned ``stepper(total_context, total_blocks, max_context,
        acc)`` adds one step's activity directly into ``acc`` and
        returns the step time, bit-identical to
        ``decode_step_stats(...)`` followed by an
        ``ActivityAccumulator.merge`` -- the vectorized serving engine
        calls it once per virtual step, so everything that does not
        depend on the context aggregates is folded at build time.
        """
        if batch <= 0:
            raise ValueError("batch must be positive")
        key = (attention, batch, block_size, self.tp.health_key())
        stepper = self._stepper_cache.get(key)
        if stepper is not None:
            return stepper
        shared_key = self._shared_stepper_key(attention, batch, block_size)
        if shared_key is not None:
            stepper = _SHARED_STEPPERS.get(shared_key)
        if stepper is None:
            stepper = self._build_stepper(batch, attention, block_size)
            if shared_key is not None:
                _SHARED_STEPPERS.put(shared_key, stepper)
        self._stepper_cache[key] = stepper
        return stepper

    def _build_stepper(
        self, batch: int, attention: DecodeAttention, block_size: int
    ) -> Callable[[int, int, int, ActivityAccumulator], float]:
        terms, _ = self._decode_terms(batch)
        layers = self.config.num_layers
        lm_time, lm_acc = terms[9]

        def fields(acc: ActivityAccumulator) -> Tuple[float, float, float, float]:
            return (
                acc.matrix_seconds, acc.matrix_active_weighted,
                acc.vector_seconds, acc.memory_seconds,
            )

        # The scalar assembly starts every sum at 0.0 and adds ln1 then
        # qkv before the attention term, so that prefix folds into one
        # constant without changing any rounding.
        pre_t = 0.0 + terms[0][0] + terms[1][0]
        pre_m, pre_w, pre_v, pre_mem = (
            0.0 + x + y for x, y in zip(fields(terms[0][1]), fields(terms[1][1]))
        )
        # Post-attention terms land after the varying attention value,
        # so each stays an individual addition; zero terms are skipped
        # (x + 0.0 == x bitwise for the non-negative partials here).
        suf_t = tuple(t for t, _ in terms[2:9] if t != 0.0) + (self._layer_dispatch,)
        suf_m, suf_w, suf_v, suf_mem = (
            tuple(v for v in (fields(a)[i] for _, a in terms[2:9]) if v != 0.0)
            for i in range(4)
        )
        # The attention term never carries comm time, so the whole comm
        # chain (prefix, suffix, unscaled LM-head merge) is one constant.
        comm_step = 0.0 + terms[0][1].comm_seconds + terms[1][1].comm_seconds
        for _, acc in terms[2:9]:
            if acc.comm_seconds != 0.0:
                comm_step = comm_step + acc.comm_seconds
        comm_step = comm_step + lm_acc.comm_seconds
        lm_m, lm_w, lm_v, lm_mem = fields(lm_acc)
        attn_term = self._build_attention_term(batch, attention, block_size)

        def stepper(
            total_context: int, total_blocks: int, max_context: int,
            acc: ActivityAccumulator,
        ) -> float:
            a_t, a_m, a_w, a_v, a_mem = attn_term(
                total_context, total_blocks, max_context
            )
            t = pre_t + a_t
            for c in suf_t:
                t += c
            t *= layers
            t += lm_time
            m = pre_m + a_m
            for c in suf_m:
                m += c
            m *= layers
            m += lm_m
            acc.matrix_seconds += m
            w = pre_w + a_w
            for c in suf_w:
                w += c
            w *= layers
            w += lm_w
            acc.matrix_active_weighted += w
            v = pre_v + a_v
            for c in suf_v:
                v += c
            v *= layers
            v += lm_v
            acc.vector_seconds += v
            mem = pre_mem + a_mem
            for c in suf_mem:
                mem += c
            mem *= layers
            mem += lm_mem
            acc.memory_seconds += mem
            acc.comm_seconds += comm_step
            return t

        return stepper

    def _build_attention_term(
        self, batch: int, attention: DecodeAttention, block_size: int
    ) -> Callable[[int, int, int], Tuple[float, float, float, float, float]]:
        """Closure pricing the decode-attention term from aggregates:
        ``(total_context, total_blocks, max_context) -> (time, matrix,
        matrix_weighted, vector, memory)``, bit-identical to
        :meth:`_decode_attention_uncached`."""
        cfg, tp = self.config, self.tp
        spec = self.device.spec
        kv_heads = max(1, cfg.kv_heads // tp.degree)
        q_heads = cfg.q_heads // tp.degree
        hd = cfg.head_dim
        itemsize = cfg.dtype.itemsize
        peak_bw = self.device.peak_bandwidth
        if attention is DecodeAttention.STATIC:
            bucket = self.static_bucket
            stream_bw = spec.memory.bandwidth * spec.memory.stream_efficiency
            dtype_peak = spec.matrix.peak(cfg.dtype)
            # Folded prefixes of the twin's products; both are exact
            # integer-valued floats, so any association gives the same
            # bits as the twin's left-to-right chain.
            kv_coeff = 2.0 * batch * kv_heads * hd
            flops_coeff = 4.0 * batch * q_heads

            def static_term(total_context: int, total_blocks: int, max_context: int):
                padded_len = ((max_context + bucket - 1) // bucket) * bucket
                kv_bytes = kv_coeff * padded_len * itemsize
                time = kv_bytes / stream_bw
                mem = kv_bytes / peak_bw
                flops = flops_coeff * padded_len * hd
                mt = flops / dtype_peak
                return time, mt, mt * 0.5, 0.0, mem

            return static_term
        implementation = {
            DecodeAttention.PAGED_BASE: "vllm-base",
            DecodeAttention.PAGED_OPT: "vllm-opt",
            DecodeAttention.PAGED_CUDA: "cuda-paged-attention",
        }.get(attention)
        if implementation is None:
            raise ValueError(f"unknown decode attention {attention!r}")
        time_fn = build_paged_time_fn(implementation, batch, spec, cfg.dtype)
        block_bytes = 2 * kv_heads * hd * block_size * itemsize
        flops_coeff = 4.0 * q_heads * hd  # exact prefix of the flops chain
        needs_padded = attention is DecodeAttention.PAGED_BASE

        def paged_term(total_context: int, total_blocks: int, max_context: int):
            kv_bytes = float(total_blocks) * block_bytes
            flops = flops_coeff * total_context
            padded = (
                float(batch * math.ceil(max_context / block_size)) * block_bytes
                if needs_padded else 0.0
            )
            time, gather_time = time_fn(kv_bytes, padded, flops)
            return time, 0.0, 0.0, min(gather_time, time), kv_bytes / peak_bw

        return paged_term

    # -- end-to-end --------------------------------------------------------
    def generate(
        self,
        batch: int,
        input_len: int,
        output_len: int,
        attention: DecodeAttention = DecodeAttention.STATIC,
        decode_samples: int = 8,
    ) -> GenerationEstimate:
        """Fixed-length generation (the Section 3.5 serving setup)."""
        if output_len <= 0 or decode_samples <= 0:
            raise ValueError("output_len and decode_samples must be positive")
        prefill = self.prefill(batch, input_len)
        # Sample decode steps across the growing context and integrate.
        acc = ActivityAccumulator()
        acc.merge(prefill.activity)
        decode_time = 0.0
        samples = min(decode_samples, output_len)
        step_span = output_len / samples
        for i in range(samples):
            ctx = input_len + int((i + 0.5) * step_span)
            step = self.decode_step(batch, ctx, attention)
            decode_time += step.time * step_span
            _merge_scaled(acc, step.activity, step_span)
        total = prefill.time + decode_time
        profile = acc.profile(total)
        power = PowerModel(self.device.spec.power).power(profile)
        return GenerationEstimate(
            device=self.device.name,
            config_name=self.config.name,
            batch=batch,
            input_len=input_len,
            output_len=output_len,
            prefill_time=prefill.time,
            decode_time=decode_time,
            average_power=power,
        )

    # -- capacity ----------------------------------------------------------
    def max_kv_tokens(self) -> int:
        """KV-cache token capacity after weights (per TP shard)."""
        capacity = self.device.spec.memory.capacity_bytes * 0.92
        weights = self.config.weight_bytes / self.tp.degree
        free = capacity - weights
        per_token = self.config.kv_bytes_per_token() * self.config.num_layers / self.tp.degree
        return max(0, int(free / per_token))


def _scale_activity(acc: ActivityAccumulator, factor: float) -> None:
    acc.matrix_seconds *= factor
    acc.matrix_active_weighted *= factor
    acc.vector_seconds *= factor
    acc.memory_seconds *= factor


def _merge_scaled(acc: ActivityAccumulator, other: ActivityAccumulator, factor: float) -> None:
    acc.matrix_seconds += other.matrix_seconds * factor
    acc.matrix_active_weighted += other.matrix_active_weighted * factor
    acc.vector_seconds += other.vector_seconds * factor
    acc.memory_seconds += other.memory_seconds * factor
