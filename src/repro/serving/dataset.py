"""Synthetic request datasets.

Two generators mirror the paper's two serving setups:

* :func:`fixed_length_requests` -- the Section 3.5 sweeps: input length
  fixed at 100, output lengths swept 25-400.
* :func:`dynamic_sonnet_requests` -- a Dynamic-Sonnet-like workload for
  Figure 17(d, e): the real dataset packs variable numbers of sonnet
  stanzas into prompts, producing a wide, right-skewed length
  distribution; we reproduce that with seeded log-normal samples
  clipped to the same ranges.
"""

from __future__ import annotations

from typing import Iterator, List

import numpy as np

from repro.audit.errors import ConfigError
from repro.serving.request import Request

#: Length statistics approximating the Dynamic-Sonnet Llama-3 dataset:
#: prompts of a few hundred to a couple thousand tokens, outputs of a
#: few dozen to a few hundred.
_SONNET_INPUT_MEDIAN = 512
_SONNET_INPUT_SIGMA = 0.6
_SONNET_INPUT_RANGE = (64, 3072)
_SONNET_OUTPUT_MEDIAN = 150
_SONNET_OUTPUT_SIGMA = 0.5
_SONNET_OUTPUT_RANGE = (16, 512)


def fixed_length_requests(
    num_requests: int, input_len: int = 100, output_len: int = 100
) -> List[Request]:
    """Uniform-shape requests, all arriving at time zero."""
    if num_requests <= 0:
        raise ConfigError("num_requests must be positive")
    return [
        Request(request_id=i, input_tokens=input_len, output_tokens=output_len)
        for i in range(num_requests)
    ]


def dynamic_sonnet_requests(num_requests: int, seed: int = 0) -> List[Request]:
    """Variable-length requests with Dynamic-Sonnet-like statistics."""
    if num_requests <= 0:
        raise ConfigError("num_requests must be positive")
    rng = np.random.default_rng(seed)
    inputs = np.exp(
        rng.normal(np.log(_SONNET_INPUT_MEDIAN), _SONNET_INPUT_SIGMA, num_requests)
    )
    outputs = np.exp(
        rng.normal(np.log(_SONNET_OUTPUT_MEDIAN), _SONNET_OUTPUT_SIGMA, num_requests)
    )
    inputs = np.clip(inputs, *_SONNET_INPUT_RANGE).astype(int)
    outputs = np.clip(outputs, *_SONNET_OUTPUT_RANGE).astype(int)
    return [
        Request(request_id=i, input_tokens=int(inputs[i]), output_tokens=int(outputs[i]))
        for i in range(num_requests)
    ]


#: Fixed RNG block size for the streaming generator.  Samples are drawn
#: one block at a time, so peak memory is O(_STREAM_CHUNK) no matter how
#: long the trace is, and the stream is a pure function of ``seed``.
_STREAM_CHUNK = 4096


def iter_dynamic_sonnet_requests(
    num_requests: int, seed: int = 0
) -> Iterator[Request]:
    """Lazily yield Dynamic-Sonnet-like requests in bounded chunks.

    The streaming twin of :func:`dynamic_sonnet_requests` for
    million-request runs: length samples are drawn a fixed-size block
    at a time so peak memory stays constant regardless of
    ``num_requests``.  Each block gets its own
    :class:`numpy.random.SeedSequence` child stream, which makes the
    stream a prefix-stable function of ``seed`` alone (the first k
    requests are identical for any ``num_requests >= k``) *but* a
    distinct stream from the list variant -- the two are statistically
    matched, not request-for-request identical.
    """
    if num_requests <= 0:
        raise ConfigError("num_requests must be positive")
    chunk = _STREAM_CHUNK
    root = np.random.SeedSequence(seed)
    next_id = 0
    for child in root.spawn(-(-num_requests // chunk)):
        rng = np.random.default_rng(child)
        count = min(chunk, num_requests - next_id)
        # Always draw full blocks so a short final block yields the
        # same prefix as a longer trace would.
        inputs = np.exp(
            rng.normal(np.log(_SONNET_INPUT_MEDIAN), _SONNET_INPUT_SIGMA, chunk)
        )[:count]
        outputs = np.exp(
            rng.normal(np.log(_SONNET_OUTPUT_MEDIAN), _SONNET_OUTPUT_SIGMA, chunk)
        )[:count]
        inputs = np.clip(inputs, *_SONNET_INPUT_RANGE).astype(int)
        outputs = np.clip(outputs, *_SONNET_OUTPUT_RANGE).astype(int)
        for i in range(count):
            yield Request(
                request_id=next_id,
                input_tokens=int(inputs[i]),
                output_tokens=int(outputs[i]),
            )
            next_id += 1
