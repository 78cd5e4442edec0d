"""Deterministic fault-injection plans.

The availability story of sections 4.3 and 5 — immutable ROS
containers, commit-or-eject agreement, buddy failover, recovery from
the Last Good Epoch — is only credible if the system survives faults
*injected at the worst possible instant*.  This module provides the
instants: production code declares named :class:`FaultPoint` s and
calls :func:`inject` at them; tests arm a seedable :class:`FaultPlan`
that decides, deterministically, what goes wrong there.

Supported actions:

* ``"crash"`` — raise :class:`InjectedFaultError`, simulating process
  death at the point;
* ``"torn"`` — truncate one of the point's files at a (seeded) random
  byte, then crash: the classic torn write a power cut leaves behind;
* ``"bitflip"`` — flip one (seeded) random bit in one of the point's
  files and *continue silently*: latent media corruption that only a
  checksum can catch;
* ``"drop"`` / ``"delay"`` — returned as a verdict string from
  delivery points; the membership layer turns either into an ejection
  (section 5: commit-or-eject, never a 2PC retry).

Every firing is recorded on ``plan.fired`` so tests can assert exactly
which fault they exercised.
"""

from __future__ import annotations

import os
import random
from dataclasses import dataclass, field

from ..errors import FaultPlanError, InjectedFaultError
from ..lint.concur.runtime import TrackedLock


@dataclass(frozen=True)
class FaultPoint:
    """One named place in the code where faults can be injected."""

    name: str
    #: "storage-tmp" (pre-publish files), "storage-published"
    #: (post-publish files), "control" (crash only) or "delivery".
    kind: str
    description: str

    def allowed_actions(self) -> frozenset[str]:
        """Actions a plan may arm at this point."""
        return _ACTIONS_BY_KIND[self.kind]


_ACTIONS_BY_KIND = {
    "storage-tmp": frozenset({"crash", "torn"}),
    "storage-published": frozenset({"crash", "torn", "bitflip"}),
    "control": frozenset({"crash"}),
    "delivery": frozenset({"drop", "delay"}),
}

#: Global catalog of registered fault points, by name.
REGISTRY: dict[str, FaultPoint] = {}  # concurrency: immutable


def register_point(name: str, kind: str, description: str) -> FaultPoint:
    """Add a fault point to the catalog (idempotent per name)."""
    if kind not in _ACTIONS_BY_KIND:
        raise FaultPlanError(f"unknown fault point kind {kind!r}")
    point = FaultPoint(name, kind, description)
    REGISTRY[name] = point
    return point


# -- the fault-point catalog -------------------------------------------
#
# Declared here rather than at each call site so tests (and the chaos
# suite) can enumerate every registered point from one place.

register_point(
    "ros.write.column", "storage-tmp",
    "after one column's .dat/.pidx files are written into the "
    "container's .tmp staging directory",
)
register_point(
    "ros.write.meta", "storage-tmp",
    "after all column files, before meta.json is written (a container "
    "staged without its commit record)",
)
register_point(
    "ros.publish", "storage-tmp",
    "after meta.json, before the atomic rename that publishes the "
    "container",
)
register_point(
    "ros.published", "storage-published",
    "after the publishing rename, before the writer returns (crash "
    "here leaves a committed-on-disk container unknown to the caller; "
    "bitflip here models latent media corruption)",
)
register_point(
    "dv.publish", "storage-tmp",
    "after a delete vector's files are staged, before its publishing "
    "rename",
)
register_point(
    "mover.moveout.container", "control",
    "after the tuple mover publishes one moveout container, before it "
    "proceeds to the next (WOS already drained in memory)",
)
register_point(
    "mover.mergeout.retire", "control",
    "between publishing a merged container and retiring its inputs "
    "(crash here leaves duplicate row coverage on disk)",
)
register_point(
    "membership.delivery", "delivery",
    "per-node commit-message delivery; drop or delay verdicts both "
    "eject the node (section 5: no 2PC retry)",
)
register_point(
    "membership.heartbeat", "delivery",
    "per-node heartbeat delivery at each failure-detector tick; drop "
    "and delay verdicts both count as a missed tick, and a node "
    "missing heartbeat_timeout consecutive ticks is ejected "
    "(section 5.3's deterministic failure detector)",
)
register_point(
    "executor.scan", "control",
    "per-batch during a distributed scan, scoped to the hosting node; "
    "a crash here simulates the node dying mid-query and drives the "
    "executor's buddy-failover retry (section 5.2)",
)
register_point(
    "executor.exchange", "control",
    "while a Send operator drains its fragment into the interconnect, "
    "scoped to the node hosting the fragment's scan; a crash here "
    "simulates a node dying mid-exchange",
)
register_point(
    "journal.append.stage", "storage-tmp",
    "after a journal segment's new contents are staged to its .tmp "
    "sibling, before the publishing rename (the appended record is "
    "lost; the published segment is untouched)",
)
register_point(
    "journal.append.publish", "storage-published",
    "after the rename that publishes a journal segment append (the "
    "record is durable but unacknowledged; torn here models a torn "
    "tail, bitflip models latent media corruption of the segment)",
)
register_point(
    "journal.checkpoint.stage", "storage-tmp",
    "after a checkpoint's contents are staged, before its publishing "
    "rename (cold start falls back to the previous checkpoint)",
)
register_point(
    "journal.checkpoint.publish", "storage-published",
    "after the rename that publishes a checkpoint, before old segments "
    "are pruned (a stale-checkpoint crash: replay must be idempotent "
    "over records the checkpoint already covers)",
)
register_point(
    "journal.commit.apply", "control",
    "after a commit record is durable in the journal, before the "
    "in-memory apply begins (crash here leaves a committed-on-disk "
    "epoch the restarted process must replay)",
)
register_point(
    "mover.wos.drain", "control",
    "after moveout drains the WOS in memory, before the first ROS "
    "container is staged (crash here loses the drained rows unless "
    "the journal can replay their commits)",
)
register_point(
    "dc.flush.stage", "storage-tmp",
    "after a Data Collector segment's contents are staged to its .tmp "
    "sibling, before the publishing rename (the flushed records are "
    "reported but not yet durable; recovery keeps the prior segment)",
)
register_point(
    "dc.flush.publish", "storage-published",
    "after the rename that publishes a Data Collector segment flush "
    "(records durable; a torn write here must truncate recovery to "
    "the segment's valid prefix)",
)


@dataclass
class FiredFault:
    """Record of one fault the plan actually injected."""

    point: str
    action: str
    detail: str = ""


@dataclass
class _ArmedFault:
    """One armed (point, action) with trigger bookkeeping."""

    point: str
    action: str
    #: Matching firings to let pass before triggering.
    skip: int = 0
    #: How many times to trigger before disarming.
    count: int = 1
    #: Restrict a delivery fault to one node index.
    node: int | None = None
    #: Torn writes: explicit truncation offset (None = seeded random).
    at_byte: int | None = None


class FaultPlan:
    """A seeded schedule of faults, armed point by point.

    Use as a context manager to install it as the process-wide active
    plan::

        plan = FaultPlan(seed=7).arm("ros.publish", "crash")
        with plan:
            ...  # the next container publish dies mid-commit
        assert plan.fired
    """

    def __init__(self, seed: int = 0):
        self.rng = random.Random(seed)
        self.fired: list[FiredFault] = []
        self._armed: list[_ArmedFault] = []

    def arm(
        self,
        point: str,
        action: str,
        *,
        skip: int = 0,
        count: int = 1,
        node: int | None = None,
        at_byte: int | None = None,
    ) -> "FaultPlan":
        """Schedule ``action`` at ``point``; returns self for chaining."""
        registered = REGISTRY.get(point)
        if registered is None:
            known = ", ".join(sorted(REGISTRY))
            raise FaultPlanError(
                f"unknown fault point {point!r} (known: {known})"
            )
        if action not in registered.allowed_actions():
            raise FaultPlanError(
                f"action {action!r} not supported at {point!r} "
                f"(allowed: {', '.join(sorted(registered.allowed_actions()))})"
            )
        self._armed.append(
            _ArmedFault(point, action, skip=skip, count=count,
                        node=node, at_byte=at_byte)
        )
        return self

    # -- installation --------------------------------------------------

    def __enter__(self) -> "FaultPlan":
        install(self)
        return self

    def __exit__(self, *exc_info) -> None:
        uninstall(self)

    # -- firing --------------------------------------------------------

    def _spec_for(self, point: str, node: int | None) -> _ArmedFault | None:
        for spec in self._armed:
            if spec.point != point or spec.count <= 0:
                continue
            if spec.node is not None and spec.node != node:
                continue
            if spec.skip > 0:
                spec.skip -= 1
                return None
            spec.count -= 1
            return spec
        return None

    def fire(
        self,
        point: str,
        files: list[str] | None = None,
        node: int | None = None,
    ) -> str | None:
        """Evaluate one :func:`inject` call against the plan."""
        spec = self._spec_for(point, node)
        if spec is None:
            return None
        if spec.action == "crash":
            self.fired.append(FiredFault(point, "crash"))
            raise InjectedFaultError(f"injected crash at {point}")
        if spec.action == "torn":
            detail = self._tear_file(files, spec.at_byte)
            self.fired.append(FiredFault(point, "torn", detail))
            raise InjectedFaultError(
                f"injected torn write + crash at {point} ({detail})"
            )
        if spec.action == "bitflip":
            detail = self._flip_bit(files)
            self.fired.append(FiredFault(point, "bitflip", detail))
            return None
        # delivery verdicts: returned to the caller, never raised.
        self.fired.append(FiredFault(point, spec.action, f"node={node}"))
        return spec.action

    def _choose_file(self, files: list[str] | None) -> str | None:
        candidates = [f for f in (files or []) if os.path.isfile(f)]
        if not candidates:
            return None
        return self.rng.choice(candidates)

    def _tear_file(self, files: list[str] | None, at_byte: int | None) -> str:
        target = self._choose_file(files)
        if target is None:
            return "no file to tear"
        size = os.path.getsize(target)
        offset = at_byte if at_byte is not None else (
            self.rng.randrange(size) if size else 0
        )
        offset = max(0, min(offset, size))
        os.truncate(target, offset)
        return f"{os.path.basename(target)} truncated at byte {offset}/{size}"

    def _flip_bit(self, files: list[str] | None) -> str:
        target = self._choose_file(files)
        if target is None:
            return "no file to corrupt"
        size = os.path.getsize(target)
        if size == 0:
            return f"{os.path.basename(target)} empty; nothing flipped"
        byte_index = self.rng.randrange(size)
        bit = self.rng.randrange(8)
        with open(target, "r+b") as handle:
            handle.seek(byte_index)
            original = handle.read(1)[0]
            handle.seek(byte_index)
            handle.write(bytes([original ^ (1 << bit)]))
        return (
            f"{os.path.basename(target)} bit {bit} of byte {byte_index} flipped"
        )


#: Serializes plan installation across threads.
_PLAN_LOCK = TrackedLock("faults._PLAN_LOCK")

#: The process-wide active plan (None = fault-free operation).
_ACTIVE: FaultPlan | None = None  # concurrency: guarded-by(_PLAN_LOCK)


def install(plan: FaultPlan) -> None:
    """Make ``plan`` the active plan consulted by :func:`inject`."""
    global _ACTIVE
    with _PLAN_LOCK:
        _ACTIVE = plan


def uninstall(plan: FaultPlan | None = None) -> None:
    """Deactivate the active plan (or ``plan``, if it is the active one)."""
    global _ACTIVE
    with _PLAN_LOCK:
        if plan is None or _ACTIVE is plan:
            _ACTIVE = None


def active() -> FaultPlan | None:
    """The currently installed plan, if any."""
    return _ACTIVE


def inject(
    point: str,
    files: list[str] | None = None,
    node: int | None = None,
) -> str | None:
    """Production-code hook: evaluate fault point ``point``.

    A no-op (returns None) unless a plan is installed and has a
    matching armed fault.  ``files`` names the on-disk files a storage
    fault may tear or corrupt; ``node`` scopes delivery faults.
    Crash-style actions raise :class:`InjectedFaultError`; delivery
    verdicts ("drop"/"delay") are returned.
    """
    if _ACTIVE is None:
        return None
    return _ACTIVE.fire(point, files=files, node=node)
