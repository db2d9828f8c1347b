"""A refused call writes nothing, and the journal is the whole state.

Random sequences of the governor's public writes (every call a journal
replays), drawn from small pools so that many of them are refused:
unknown ids, duplicates, unsettleable shares, a need beyond the footprint
ceiling, a dependency not yet registered, preprovisioning beyond a host's free
capacity, reports on pairs never placed, and arguments whose saved entry
a restore would refuse (an empty id, a negative price or share, an
empty host OS, a version that does not parse, a flag that is no bool).
After every call the live governor must equal a restore of its own
snapshot, and a call that leaves the journal as it was must leave the
state as it was too.
"""
from hypothesis import given, settings, strategies as st

from conftest import make_service
from momcc.domain import ExecutionReport, Outcome, ResourceVector, SecurityLevel
from momcc.errors import MarketplaceError
from momcc.governor import GovernorConfig, ProfilerPolicy, ServiceGovernor
from momcc.governor.journal import REPLAYED
from momcc.snapshot import restore_governor, snapshot_governor

# A service whose last two reports failed is deprecated by the next sweep.
CONFIG = GovernorConfig(profiler_policy=ProfilerPolicy(failure_threshold=0.5, window=2))

SMALL = ResourceVector(1000, 4, 10, 1000)  # room for one `NEED`, not two
ROOMY = ResourceVector(8192, 64, 64, 8000)
NEED = ResourceVector(600, 2, 5, 500)

# The started governor knows all but the last of each; svc-d registers
# only if a drawn call registers it.
HOSTS = ["h-1", "h-2", "h-3", "h-ghost"]
SERVICE_IDS = ["svc-a", "svc-b", "svc-c", "svc-d"]


def svc_d(terms: tuple[dict, bool]) -> tuple:
    """A registration of svc-d with `terms`' changes and scan verdict."""
    changes, scanned = terms
    return make_service(**{"service_id": "svc-d", "developer_id": "dev-a", "functionality_tag": "resize",
                           "min_resources": NEED, **changes}), scanned


# Registrations of svc-d, each refused for one reason but the first two.
REGISTRATIONS = st.sampled_from([
    ({}, True),
    ({"dependencies": ("svc-a",), "security_level": SecurityLevel.MEDIUM}, True),
    ({"service_id": "svc-a"}, True),  # a duplicate
    ({"developer_id": "dev-b"}, True),  # refused until dev-b negotiates
    ({"developer_share": 0.9}, True),  # no room for the commission
    ({}, False),  # the code scan failed
    ({"min_resources": ResourceVector(2000, 1, 1, 1)}, True),  # beyond the footprint ceiling
    ({"dependencies": ("svc-d",)}, True),  # a dependency not yet registered: itself
    ({"service_id": ""}, True),  # the entry's schema refuses the rest
    ({"price": -1}, True),
    ({"developer_share": -0.5}, True),
    ({"os_name": ""}, True),
    ({}, 1),
]).map(svc_d)
HOST = st.sampled_from(HOSTS)
SERVICE = st.sampled_from(SERVICE_IDS)
AT = st.sampled_from([0.0, 2.5])
# Reports on the started governor's placements, or on any pair.
PAIRS = st.sampled_from([("h-2", "svc-a"), ("h-2", "svc-b"), ("h-1", "svc-a")]) | st.tuples(HOST, SERVICE)
REPORTS = st.builds(
    lambda n, pair, ok: ExecutionReport(
        f"r-{n}", *pair, "anon-1", float(n), 1.0, 5, Outcome.success() if ok else Outcome.failure("fault"),
    ),
    st.integers(1, 8), PAIRS, st.booleans(),
)

CALLS = {
    "billing.negotiate_developer": st.tuples(st.sampled_from(["dev-a", "dev-b", ""]), st.sampled_from([-1, 100]),
                                             st.sampled_from([0.4, 0.9, 1.5])),
    "registry.register_service": REGISTRATIONS,
    "hosts.register_host": st.tuples(HOST, st.sampled_from(["Android", ""]), st.sampled_from(["4.0", "4.x"]),
                                     st.sampled_from([SMALL, ROOMY]), st.sampled_from([10**6, -1])),
    "hosts.request_hosting": st.tuples(HOST, SERVICE, st.sampled_from([False, True, 1]), AT),
    "hosts.unhost": st.tuples(HOST, SERVICE),
    "hosts.mark_departed": st.tuples(HOST),
    "hosts.ingest_report": st.tuples(REPORTS),
    "profiler.substitution_sweep": st.just(()),
    "profiler.report_malfunction": st.tuples(SERVICE, st.sampled_from(["stalls", None]), AT),
    "preprovision_host": st.tuples(HOST, st.lists(st.sampled_from(SERVICE_IDS[:3]), min_size=1, max_size=3),
                                   st.booleans(), AT),
}
STEPS = st.lists(st.one_of([st.tuples(st.just(name), args) for name, args in CALLS.items()]), max_size=30)


def test_the_pools_draw_every_replayed_call():
    assert CALLS.keys() == REPLAYED.keys()


def started() -> ServiceGovernor:
    """A governor holding three services and three hosts: the roomy h-2
    runs svc-a and svc-b, and h-1 has room for nothing beside its svc-a."""
    governor = ServiceGovernor(CONFIG)
    governor.billing.negotiate_developer("dev-a", 100, 0.4)
    for service_id in SERVICE_IDS[:3]:
        governor.registry.register_service(make_service(service_id=service_id, developer_id="dev-a",
                                                        functionality_tag="resize", min_resources=NEED))
    for host_id, capacity in zip(HOSTS, (SMALL, ROOMY, SMALL)):
        governor.hosts.register_host(host_id, "Android", "4.0", capacity, 10**6)
    governor.preprovision_host("h-2", ["svc-a", "svc-b"])
    governor.hosts.request_hosting("h-1", "svc-a")
    return governor


def fingerprint(governor: ServiceGovernor) -> tuple:
    """Every piece of state the governor's calls write, copied."""
    return (
        dict(governor.host_db.hosts),
        dict(governor.billing._agreements),
        set(governor.hosts._placed),
        list(governor.billing._rows),
        list(governor.hosts.decisions),
        dict(governor.registry.db.status),
        list(governor.profiler.escalations),
        list(governor.host_db.reports),
    )


def call(governor: ServiceGovernor, name: str):
    unit, _, method = name.rpartition(".")
    return getattr(getattr(governor, unit) if unit else governor, method)


@settings(max_examples=300, deadline=None)
@given(STEPS)
def test_a_refused_call_writes_nothing_and_a_restore_rebuilds_every_state(steps):
    governor = started()
    for name, args in steps:
        before, journal = fingerprint(governor), list(governor.journal)
        try:
            call(governor, name)(*args)
        except (MarketplaceError, ValueError):
            assert governor.journal == journal, name
        if governor.journal == journal:
            assert fingerprint(governor) == before, name
        else:
            assert governor.journal[:-1] == journal and governor.journal[-1][0] == name
        assert fingerprint(restore_governor(snapshot_governor(governor))) == fingerprint(governor), name
