"""Send/Recv operators and the simulated interconnect.

    Send/Recv: Sends tuples from one node to another.  Both broadcast
    and sending to nodes based on segmentation expression evaluation is
    supported.  Each Send and Recv pair is capable of retaining the
    sortedness of the input stream.  (section 6.1)

The :class:`Exchange` stands in for the cluster interconnect: named
channels of row batches with byte accounting, so benches can report
network volume (the paper's design goal of not letting the interconnect
become the bottleneck is observable as resegment-vs-broadcast byte
counts in the optimizer ablation).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ...columnar.row_block import RowBlock
from ...columnar.vectors import as_list
from ...errors import ExecutionError
from ...projections.segmentation import ring_positions, split_by_range
from ...trace import TRACER
from ..expressions import Expr
from .base import Operator


def _approx_block_bytes(block: RowBlock) -> int:
    """Cheap, deterministic byte estimate for network accounting."""
    total = 0
    for values in block.columns.values():
        for value in values:
            if value is None:
                total += 1
            elif isinstance(value, str):
                total += len(value) + 1
            else:
                total += 8
    return total


@dataclass
class Exchange:
    """A set of per-destination channels between plan fragments."""

    destinations: int
    channels: dict[int, list[RowBlock]] = field(default_factory=dict)
    bytes_sent: int = 0
    blocks_sent: int = 0
    rows_sent: int = 0

    def __post_init__(self):
        for destination in range(self.destinations):
            self.channels[destination] = []

    def push(self, destination: int, block: RowBlock) -> None:
        """Send one block to one destination."""
        if destination not in self.channels:
            raise ExecutionError(f"unknown destination {destination}")
        self.channels[destination].append(block)
        self.bytes_sent += _approx_block_bytes(block)
        self.blocks_sent += 1
        self.rows_sent += block.row_count

    def drain(self, destination: int) -> list[RowBlock]:
        """All blocks queued for one destination."""
        blocks = self.channels[destination]
        self.channels[destination] = []
        return blocks


class SendOperator(Operator):
    """Routes its child's output into an exchange.

    ``segment_exprs`` routes each row by its key's ring position, one
    ring range per destination — the rule storage places rows by;
    ``broadcast=True`` copies every block to every destination.  As an
    operator it yields nothing — data continues on the Recv side.
    """

    op_name = "Send"

    def __init__(
        self,
        child: Operator,
        exchange: Exchange,
        segment_exprs: list[Expr] | None = None,
        broadcast: bool = False,
        failure_probe=None,
    ):
        super().__init__([child])
        if broadcast == (segment_exprs is not None):
            raise ExecutionError("Send needs exactly one of broadcast/segment_exprs")
        self.exchange = exchange
        self.segment_exprs = segment_exprs
        self.broadcast = broadcast
        #: Zero-argument callable consulted per drained block; the
        #: distributed executor wires one that raises
        #: :class:`repro.errors.NodeDownError` when the node hosting
        #: this sender's fragment dies mid-exchange.
        self.failure_probe = failure_probe
        self._ran = False
        #: Cross-node trace propagation, stamped by the distributed
        #: executor at plan-build time: the handle names the span that
        #: requested this fragment, ``trace_node`` is the simulated
        #: node hosting it.  ``trace_span_id`` records the live span
        #: this operator opened, so the post-hoc plan walk nests the
        #: fragment's operator spans under it instead of re-emitting.
        self.trace_parent = None
        self.trace_node: int | None = None
        self.trace_span_id: int | None = None

    def run(self) -> None:
        """Drain the child into the exchange (idempotent: several Recv
        destinations may trigger the same sender)."""
        if self._ran:
            return
        self._ran = True
        sent_before = self.exchange.rows_sent
        bytes_before = self.exchange.bytes_sent
        cm = TRACER.span_from(
            self.trace_parent,
            "exchange.send",
            category="exchange",
            node_index=self.trace_node,
            broadcast=self.broadcast,
        )
        with cm as span:
            if span is not None:
                self.trace_span_id = span.span_id
            self._route()
            cm.annotate(
                rows_sent=self.exchange.rows_sent - sent_before,
                bytes_sent=self.exchange.bytes_sent - bytes_before,
            )

    def _route(self) -> None:
        destinations = self.exchange.destinations
        if self.broadcast:
            for block in self.children[0].blocks():
                if self.failure_probe is not None:
                    self.failure_probe()
                for destination in range(destinations):
                    self.exchange.push(destination, block)
            return
        runs = [expr.compiled() for expr in self.segment_exprs]
        memo: dict = {}  # one hash per distinct key of the whole stream
        for block in self.children[0].blocks():
            if self.failure_probe is not None:
                self.failure_probe()
            positions = ring_positions(
                [as_list(run(block)) for run in runs], block.row_count, memo
            )
            # per-destination row selection preserves input order, so a
            # sorted input stream stays sorted per channel.
            for destination, indexes in split_by_range(positions, destinations).items():
                self.exchange.push(destination, block.select_rows(indexes))

    def _produce(self):
        self.run()
        return iter(())

    def label(self) -> str:
        if self.broadcast:
            return "Send(broadcast)"
        keys = ", ".join(repr(expr) for expr in self.segment_exprs)
        return f"Send(segment by {keys})"


class RecvOperator(Operator):
    """Yields the blocks queued for one destination of an exchange.

    ``senders`` lists the Send operators feeding the exchange; Recv
    runs them on first pull (simulating the upstream fragments having
    executed on their nodes).
    """

    op_name = "Recv"

    def __init__(
        self,
        exchange: Exchange,
        destination: int,
        senders: list[SendOperator] | None = None,
    ):
        super().__init__(list(senders or []))
        self.exchange = exchange
        self.destination = destination
        #: Cross-node propagation, stamped by the executor (see
        #: :class:`SendOperator`).  The Recv side of the exchange runs
        #: on the destination's node; its span covers running the
        #: senders and draining the channel, and closes before any
        #: block is yielded so an abandoned pull cannot leak it.
        self.trace_parent = None
        self.trace_node: int | None = None
        self.trace_span_id: int | None = None

    def _produce(self):
        cm = TRACER.span_from(
            self.trace_parent,
            "exchange.recv",
            category="exchange",
            node_index=self.trace_node,
            destination=self.destination,
        )
        with cm as span:
            if span is not None:
                self.trace_span_id = span.span_id
            for sender in self.children:
                if isinstance(sender, SendOperator):
                    sender.run()
            blocks = self.exchange.drain(self.destination)
            cm.annotate(
                blocks_received=len(blocks),
                rows_received=sum(b.row_count for b in blocks),
            )
        for block in blocks:
            if block.row_count:
                yield block

    def label(self) -> str:
        return f"Recv(dest={self.destination})"
