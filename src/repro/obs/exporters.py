"""Trace exporters: chrome://tracing JSON, flat JSON, text summary.

One trace schema serves every producer -- the serving engine's
virtual-clock tracer and the compiled-graph profiler
(:mod:`repro.tools.profiler`) both funnel through
:func:`chrome_trace_json`, so a serving trace and an HW-trace open
identically in ``chrome://tracing`` / Perfetto.

Schema (the contract ``scripts/check_trace_schema.py`` validates):

* top level is ``{"traceEvents": [...], "displayTimeUnit": "ms"}``;
* one ``M``/``process_name`` metadata event, one ``M``/``thread_name``
  per track; tracks are span categories, allocated dynamically in
  first-seen order (tid 1..N) -- never a hardcoded engine map;
* spans are ``X`` (complete) events with ``ts``/``dur`` in
  microseconds of *virtual* time, ``cat`` set to the track category;
* counters are ``C`` events (one lane per counter name);
* instants are ``i`` events; requests are ``b``/``e`` async pairs
  keyed by ``id``.

The document is written straight from the tracer's record lists, one
``%``-template per event kind, byte-identical to
``json.dumps(document, indent=1, sort_keys=True)`` over event dicts --
without building those dicts or running ``json``'s pure-Python indent
encoder.  :func:`chrome_trace_events` parses that output, so the
schema is spelled in one place.

All ordering is deterministic (recording order; tracks by first use),
so same-seed runs export byte-identical documents.
"""

from __future__ import annotations

import json
from json.encoder import encode_basestring_ascii as _str
from operator import itemgetter
from typing import Callable, Dict, List, Optional, Tuple

from repro.obs.tracer import Tracer

#: Trace time unit: chrome expects microseconds.
_US = 1e6

#: ``float.__repr__`` spellings ``json`` replaces.
_NON_FINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}

# Event templates at the document's nesting depth (``indent=1``: an
# event sits at depth 2, its fields at 3, its args' entries at 4).
# Fields appear in sorted-key order.
_DOCUMENT = '{\n "displayTimeUnit": "ms",\n "traceEvents": [\n  %s\n ]\n}'
_EVENT_SEP = ",\n  "
_PROCESS = '{\n   "args": %s,\n   "name": "process_name",\n   "ph": "M",\n   "pid": %s\n  }'
_THREAD = (
    '{\n   "args": %s,\n   "name": "thread_name",\n   "ph": "M",\n'
    '   "pid": %s,\n   "tid": %s\n  }'
)
_SPAN = (
    '{\n   "args": %s,\n   "cat": %s,\n   "dur": %s,\n   "name": %s,\n'
    '   "ph": "X",\n   "pid": %s,\n   "tid": %s,\n   "ts": %s\n  }'
)
_COUNTER = (
    '{\n   "args": {\n    "value": %s\n   },\n   "name": %s,\n   "ph": "C",\n'
    '   "pid": %s,\n   "ts": %s\n  }'
)
_INSTANT = (
    '{\n   "args": %s,\n   "cat": %s,\n   "name": %s,\n   "ph": "i",\n'
    '   "pid": %s,\n   "s": "t",\n   "tid": %s,\n   "ts": %s\n  }'
)
_ASYNC = (
    '{\n   "args": %s,\n   "cat": %s,\n   "id": %s,\n   "name": %s,\n'
    '   "ph": %s,\n   "pid": %s,\n   "tid": %s,\n   "ts": %s\n  }'
)
#: Newline plus indent of an event field (depth 3).
_FIELD_NEWLINE = "\n   "


def _float(value: float) -> str:
    """A float as ``json`` writes it."""
    text = float.__repr__(value)
    return _NON_FINITE.get(text, text)


def _floats(values: List[float]) -> List[str]:
    """:func:`_float` over a column (only non-finite reprs hold an "n")."""
    texts = list(map(float.__repr__, values))
    if "n" in "".join(texts):
        texts = [_NON_FINITE.get(text, text) for text in texts]
    return texts


def _scalar(value: object) -> Optional[str]:
    """A str/int/float/bool/None as ``json`` writes it, else None."""
    if isinstance(value, str):
        return _str(value)
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return int.__repr__(value)
    if isinstance(value, float):
        return _float(value)
    return None


#: Scalar writers by exact type, for the common cases.
_SCALAR_BY_TYPE = {int: int.__repr__, float: _float, str: _str}


def _nested(value: object) -> str:
    """Any value as ``json.dumps(indent=1, sort_keys=True)`` writes it
    at an event field's depth.  Newlines inside strings are escaped,
    so re-indenting every newline is exact."""
    return json.dumps(value, indent=1, sort_keys=True).replace("\n", _FIELD_NEWLINE)


def _field(value: object) -> str:
    """An event field's value (scalars are the only kind tracers emit)."""
    text = _scalar(value)
    return _nested(value) if text is None else text


#: An args layout: the dict's ``%``-template in sorted-key order, and a
#: getter that puts insertion-ordered value texts into that order.
_Layout = Tuple[str, Callable[[List[str]], object]]


def _layout(keys: Tuple[str, ...]) -> _Layout:
    order = sorted(range(len(keys)), key=keys.__getitem__)
    template = "{" + ",".join(
        ["\n    %s: %%s" % _str(keys[i]).replace("%", "%%") for i in order]
    ) + "\n   }"
    return template, itemgetter(*order)


def _args(args: Dict[str, object], layouts: Dict[tuple, _Layout]) -> str:
    """An ``args`` dict: inline for str keys and scalar values, else
    through ``json`` (nested values, non-str keys).  ``layouts`` caches
    one template per key sequence."""
    if not args:
        return "{}"
    texts = [
        (_SCALAR_BY_TYPE.get(value.__class__) or _scalar)(value)
        for value in args.values()
    ]
    if None in texts:
        return _nested(args)
    keys = tuple(args)
    layout = layouts.get(keys)
    if layout is None:
        if not all(isinstance(key, str) for key in keys):
            return _nested(args)
        layout = layouts[keys] = _layout(keys)
    template, order = layout
    return template % order(texts)


def _track_ids(tracer: Tracer) -> Dict[str, int]:
    """Category -> tid, allocated in first-seen order starting at 1."""
    tids: Dict[str, int] = {}
    for span in tracer.spans:
        if span.category not in tids:
            tids[span.category] = len(tids) + 1
    for event in tracer.instants:
        if event.category not in tids:
            tids[event.category] = len(tids) + 1
    for event in tracer.async_events:
        if event.category not in tids:
            tids[event.category] = len(tids) + 1
    return tids


def chrome_trace_json(tracer: Tracer, pid: int = 1) -> str:
    """Serialize a tracer as a chrome://tracing JSON document (see the
    module docstring for the schema)."""
    tids = _track_ids(tracer)
    pid_s = _field(pid)
    cats = {category: _field(category) for category in tids}
    tid_s = {category: _field(tid) for category, tid in tids.items()}
    layouts: Dict[tuple, _Layout] = {}
    events = [_PROCESS % (_args({"name": tracer.process_name}, layouts), pid_s)]
    events += [
        _THREAD % (_args({"name": category}, layouts), pid_s, tid_s[category])
        for category in tids
    ]
    spans = [span for span in tracer.spans if span.end is not None]
    events += [
        _SPAN % (
            _args(span.args, layouts), cats[span.category], dur, _field(span.name),
            pid_s, tid_s[span.category], ts,
        )
        for span, ts, dur in zip(
            spans,
            _floats([round(span.start * _US, 3) for span in spans]),
            _floats([round((span.end - span.start) * _US, 3) for span in spans]),
        )
    ]
    counters = tracer.counters
    events += [
        _COUNTER % (value, _field(sample.name), pid_s, ts)
        for sample, value, ts in zip(
            counters,
            _floats([sample.value for sample in counters]),
            _floats([round(sample.t * _US, 3) for sample in counters]),
        )
    ]
    instants = tracer.instants
    events += [
        _INSTANT % (
            _args(event.args, layouts), cats[event.category], _field(event.name),
            pid_s, tid_s[event.category], ts,
        )
        for event, ts in zip(
            instants, _floats([round(event.t * _US, 3) for event in instants])
        )
    ]
    halves = tracer.async_events
    events += [
        _ASYNC % (
            _args(half.args, layouts), cats[half.category], _field(half.async_id),
            _field(half.name), _field(half.phase), pid_s, tid_s[half.category], ts,
        )
        for half, ts in zip(
            halves, _floats([round(half.t * _US, 3) for half in halves])
        )
    ]
    return _DOCUMENT % _EVENT_SEP.join(events)


def chrome_trace_events(tracer: Tracer, pid: int = 1) -> List[Dict]:
    """The ``traceEvents`` list for one tracer, parsed back from
    :func:`chrome_trace_json`."""
    return json.loads(chrome_trace_json(tracer, pid))["traceEvents"]


def flat_json(tracer: Tracer) -> str:
    """Spans/counters/instants as flat record lists (for pandas etc.)."""
    document = {
        "process": tracer.process_name,
        "spans": [
            {
                "span_id": s.span_id,
                "parent_id": s.parent_id,
                "name": s.name,
                "category": s.category,
                "start": s.start,
                "end": s.end,
                "args": s.args,
            }
            for s in tracer.spans
        ],
        "counters": [
            {"name": c.name, "t": c.t, "value": c.value} for c in tracer.counters
        ],
        "instants": [
            {"name": e.name, "category": e.category, "t": e.t, "args": e.args}
            for e in tracer.instants
        ],
    }
    return json.dumps(document, indent=1, sort_keys=True)


def text_summary(tracer: Tracer) -> str:
    """Fixed-format per-category busy-time and span-count summary."""
    closed = [s for s in tracer.spans if s.end is not None]
    total = max((s.end for s in closed), default=0.0)
    lines = [f"Trace summary: {tracer.process_name}"]
    lines.append(
        f"  {len(closed)} spans | {len(tracer.counters)} counter samples | "
        f"{len(tracer.instants)} instants | {len(tracer.async_events) // 2} async spans | "
        f"span of {total:.4f} s virtual time"
    )
    for category in tracer.categories():
        spans = [s for s in closed if s.category == category]
        busy = sum(s.duration for s in spans)
        share = busy / total if total > 0 else 0.0
        lines.append(
            f"  {category:<12s} {len(spans):5d} spans  busy {busy:10.4f} s  ({share:6.1%})"
        )
    by_name: Dict[str, List[float]] = {}
    for span in closed:
        by_name.setdefault(f"{span.category}:{span.name}", []).append(span.duration)
    top = sorted(by_name.items(), key=lambda kv: (-sum(kv[1]), kv[0]))[:8]
    if top:
        lines.append("  hottest spans (by total time):")
        for name, durations in top:
            lines.append(
                f"    {name:<32s} n={len(durations):5d}  total {sum(durations):10.4f} s"
            )
    return "\n".join(lines)
