"""Epoch management (section 5 / 5.1).

Every tuple is stamped with the epoch of the transaction that committed
it; an epoch boundary is a globally consistent snapshot.  This module
tracks the three epoch values the paper names:

* the **current epoch**, advanced automatically as part of any commit
  that includes DML (post-C-Store behaviour that removed the "where is
  my commit?" confusion of timed epoch windows);
* the **Last Good Epoch** (LGE) per projection — the epoch through
  which all data has reached disk (ROS); data beyond it lives only in
  the WOS and is lost if the node fails;
* the **Ancient History Mark** (AHM) — history before it may be purged
  by the tuple mover; it advances by policy and *holds* while nodes are
  down so recovery can replay missed DML.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..errors import TransactionError
from ..lint import sanitizer

#: Epoch given to data committed before the database ever advanced.
INITIAL_EPOCH = 1


@dataclass
class AhmPolicy:
    """User-specified policy for advancing the Ancient History Mark.

    ``lag_epochs`` is how many epochs of history to retain behind the
    current epoch (0 = keep only the latest committed state queryable
    historically).
    """

    lag_epochs: int = 10


@dataclass
class EpochManager:
    """Cluster-wide epoch clock and AHM bookkeeping."""

    current_epoch: int = INITIAL_EPOCH
    ahm: int = 0
    policy: AhmPolicy = field(default_factory=AhmPolicy)
    #: Last Good Epoch per (node, projection) pair.
    _lge: dict[tuple[int, str], int] = field(default_factory=dict)
    #: Nodes currently down; the AHM holds while this is non-empty.
    _down_nodes: set[int] = field(default_factory=set)

    # -- the epoch clock ---------------------------------------------------

    @property
    def latest_queryable_epoch(self) -> int:
        """The epoch READ COMMITTED queries target: current - 1."""
        return self.current_epoch - 1

    def advance_for_commit(self) -> int:
        """Advance the epoch as part of a DML commit; returns the epoch
        the commit's changes are stamped with (section 5.1: the epoch
        advances *with* the commit, so it is immediately visible)."""
        commit_epoch = self.current_epoch
        self.current_epoch += 1
        sanitizer.check_epoch_advance(commit_epoch, self.current_epoch)
        return commit_epoch

    # -- Last Good Epoch ---------------------------------------------------

    def set_lge(self, node: int, projection: str, epoch: int) -> None:
        """Record that ``projection`` on ``node`` has all data <= epoch
        safely in the ROS."""
        key = (node, projection)
        if epoch < self._lge.get(key, 0):
            raise TransactionError("LGE cannot move backwards")
        self._lge[key] = epoch

    def invalidate_lge(self, node: int, projection: str) -> None:
        """Reset a projection's LGE to 0 ("nothing durable") — the one
        sanctioned backwards move.  From the moment recovery truncates
        a copy until its replay completes, the node holds a
        half-replayed window; a recovery attempt that crashes in
        between must not leave an LGE claiming more than the disk
        holds (the retry would then skip replaying it)."""
        self._lge[(node, projection)] = 0

    def lge(self, node: int, projection: str) -> int:
        """Last Good Epoch of a projection on a node (0 = nothing durable)."""
        return self._lge.get((node, projection), 0)

    def cluster_lge(self) -> int:
        """Minimum LGE across all tracked projections (0 if none)."""
        return min(self._lge.values(), default=0)

    # -- Ancient History Mark ----------------------------------------------

    def node_down(self, node: int) -> None:
        """Mark a node down: the AHM stops advancing (section 5.1)."""
        self._down_nodes.add(node)

    def node_up(self, node: int) -> None:
        """Mark a node recovered; AHM advancement resumes."""
        self._down_nodes.discard(node)

    @property
    def nodes_down(self) -> bool:
        """Whether any node is currently down."""
        return bool(self._down_nodes)

    def advance_ahm(self) -> int:
        """Advance the AHM per policy; returns the (possibly unchanged)
        AHM.  Never advances past any LGE and never while nodes are
        down (the history is needed for incremental recovery replay)."""
        if self._down_nodes:
            return self.ahm
        old_ahm = self.ahm
        target = max(self.latest_queryable_epoch - self.policy.lag_epochs, 0)
        if self._lge:
            target = min(target, self.cluster_lge())
        if target > self.ahm:
            self.ahm = target
        sanitizer.check_ahm_advance(
            old_ahm,
            self.ahm,
            self.cluster_lge() if self._lge else None,
            self.latest_queryable_epoch,
        )
        return self.ahm
