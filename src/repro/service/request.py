"""Requests and their life-cycle records.

A :class:`ServiceRequest` is one tenant's ask: "schedule and simulate
hot spot X of my workload, answer by tick D".  Streams are generated
*up front* from per-tenant seeded generators — the arrival pattern is a
pure function of the fleet and the service seed, never of execution
interleaving, which is what makes two soak runs bit-identical.

The mutable :class:`RequestRecord` tracks one live request through the
arbiter: queued → running, with preemption count, backoff gate and the
delivered answer's digest; it is dropped when the request completes.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Iterator, Sequence, Tuple

from .tenant import TenantSpec

__all__ = [
    "ServiceRequest",
    "RequestRecord",
    "generate_requests",
    "make_request",
    "tenant_stream",
]


@dataclass(frozen=True)
class ServiceRequest:
    """One immutable tenant request."""

    tenant: str
    request_id: str
    hot_spot: str
    #: Workload-variant index (seed offset) — the cache-identity knob.
    variant: int
    arrival: int
    deadline: int
    lease_acs: int
    #: Denormalised :attr:`TenantSpec.priority_rank` for arbitration keys.
    priority: int
    #: Global arrival sequence number — the deterministic tie-breaker.
    seq: int


@dataclass
class RequestRecord:
    """Mutable life-cycle state of one *live* request.

    A record lives in the arbiter's queue or running list and is
    dropped when its request completes.  ``epoch`` increments every
    time the request is (re-)dispatched; a completion event carries the
    epoch it was scheduled under, so a preempted dispatch's stale
    completion is recognised and ignored.
    """

    request: ServiceRequest
    #: False for admission-free cache hits (no ledger charge to refund).
    admitted: bool = True
    #: Estimated fabric service time (ticks) at admission.
    est_ticks: int = 0
    #: Earliest tick the request may be (re-)dispatched.
    not_before: int = 0
    preemptions: int = 0
    epoch: int = 0
    degraded: bool = False
    cache_hit: bool = False
    #: Whether the current dispatch holds a fabric lease.
    holds_lease: bool = False
    service_ticks: int = 0
    #: Short content digest of the delivered result payload.
    digest: str = ""


def tenant_stream(
    tenant: TenantSpec, seed: int, start: int, duration: int
) -> Iterator[Tuple[int, int, str, int]]:
    """One tenant's seeded arrivals after ``start`` and before ``duration``.

    Yields ``(arrival, counter, hot_spot, variant)``.  The generator is
    seeded from ``seed`` and the tenant *name* (not its fleet position),
    so adding a tenant never perturbs the other tenants' streams.
    Arrival gaps are uniform in ``[mean_gap/2, 3*mean_gap/2]``.
    """
    rng = random.Random(f"{seed}:{tenant.name}")
    low = max(1, tenant.mean_gap // 2)
    high = max(low, tenant.mean_gap * 3 // 2)
    tick = start + low + rng.randrange(high - low + 1)
    counter = 0
    while tick < duration:
        hot_spot = tenant.hot_spots[rng.randrange(len(tenant.hot_spots))]
        variant = rng.randrange(tenant.variants)
        yield tick, counter, hot_spot, variant
        counter += 1
        tick += low + rng.randrange(high - low + 1)


def make_request(
    tenant: TenantSpec,
    seq: int,
    arrival: int,
    counter: int,
    hot_spot: str,
    variant: int,
) -> ServiceRequest:
    """The request for one :func:`tenant_stream` item, numbered ``seq``."""
    return ServiceRequest(
        tenant=tenant.name,
        request_id=f"{tenant.name}-r{counter:04d}",
        hot_spot=hot_spot,
        variant=variant,
        arrival=arrival,
        deadline=arrival + tenant.deadline_slack,
        lease_acs=tenant.lease_acs,
        priority=tenant.priority_rank,
        seq=seq,
    )


def generate_requests(
    tenants: Sequence[TenantSpec], duration: int, seed: int
) -> Tuple[ServiceRequest, ...]:
    """The full deterministic request stream of one service run.

    The tenants' :func:`tenant_stream` streams, merged in
    ``(arrival, tenant, per-tenant counter)`` order and numbered
    globally.
    """
    by_name = {tenant.name: tenant for tenant in tenants}
    merged = sorted(
        (arrival, tenant.name, counter, hot_spot, variant)
        for tenant in tenants
        for arrival, counter, hot_spot, variant in tenant_stream(
            tenant, seed, 0, duration
        )
    )
    return tuple(
        make_request(by_name[name], seq, arrival, counter, hot_spot, variant)
        for seq, (arrival, name, counter, hot_spot, variant) in enumerate(
            merged
        )
    )
