"""Spec parsers reject malformed input with a typed ConfigError only.

Every CLI spec string (fault plans, fleet chaos, tenants, upgrades,
node pools) is user input: whatever text arrives, the parsers either
return a value or raise :class:`~repro.audit.ConfigError` -- never a
bare ``ValueError``, ``OverflowError`` or ``KeyError`` from the
conversion underneath.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.audit import ConfigError
from repro.cli import _parse_nodes_spec
from repro.cluster import NodeFaultPlan, UpgradePlan, parse_tenants_spec
from repro.faults import FaultPlan

#: Fragments that make near-valid specs: keys, numbers (including
#: non-finite and non-integral ones) and separators.
_TOKENS = st.sampled_from([
    "t", "recover", "until", "factor", "period", "cycles", "duration",
    "tier", "share", "weight", "rate", "burst", "slo", "start", "restart",
    "poll", "crash", "brownout", "fabric", "blip", "gaudi2", "gaudi2-1",
    "x", "0", "1", "3", "-1", "99", "0.5", "1.5", "1e400", "-1e400",
    "nan", "inf", "-inf", "", " ", "@", "=", ",", ";", ":", "-",
])
_SPECS = st.one_of(
    st.lists(_TOKENS, max_size=12).map("".join),
    st.text(max_size=30),
)


def _only_config_errors(parse, spec):
    try:
        parse(spec)
    except ConfigError:
        pass


@settings(max_examples=300, deadline=None)
@given(spec=_SPECS, field=st.sampled_from([
    "fail_device", "degrade_link", "flap_link", "throttle_hbm", "straggler",
]))
def test_fault_plan_specs(spec, field):
    _only_config_errors(lambda s: FaultPlan.from_specs(**{field: [s]}), spec)


@settings(max_examples=300, deadline=None)
@given(spec=_SPECS)
def test_node_fault_plan_spec(spec):
    _only_config_errors(NodeFaultPlan.from_spec, spec)


@settings(max_examples=300, deadline=None)
@given(spec=_SPECS)
def test_tenants_spec(spec):
    _only_config_errors(parse_tenants_spec, spec)


@settings(max_examples=300, deadline=None)
@given(spec=_SPECS)
def test_upgrade_spec(spec):
    _only_config_errors(UpgradePlan.from_spec, spec)


@settings(max_examples=300, deadline=None)
@given(spec=_SPECS)
def test_nodes_spec(spec):
    _only_config_errors(_parse_nodes_spec, spec)
