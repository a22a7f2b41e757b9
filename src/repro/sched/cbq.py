"""CBQ-lite — a simplified Class Based Queueing scheduler (Floyd &
Jacobson [11]), the system the paper positions H-FSC against:

    "H-FSC implements hierarchical scheduling similar to Class Based
    Queuing (CBQ) with several advantages over CBQ ... One of its main
    advantages is the decoupling of delay and bandwidth allocation."

This implementation keeps CBQ's essential structure — a class tree with
per-class **rates** (token buckets) and **priorities**, overlimit
classes borrowing from underlimit ancestors — precisely because that
structure exhibits the *coupling* H-FSC removes: a class's delay under
contention is tied to its allocated rate (its token refill interval),
so low delay can only be bought with bandwidth.  The ablation benchmark
measures exactly that against H-FSC's concave service curves.

Simplifications vs. real CBQ (documented, deliberate): token buckets
replace the idle-time estimator, and there are no overlimit penalty
actions — an overlimit class simply waits for tokens or a lender.
Consequently CBQ-lite is only work-conserving when the caller paces
``dequeue(now)`` with advancing time (as a transmit loop does).
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, List, Optional

from ..core.errors import ConfigurationError
from ..core.plugin import PluginContext
from ..net.packet import Packet
from .base import DEFAULT_QUEUE_LIMIT, ClassSchedulerInstance, PacketQueue, SchedulerPlugin

DEFAULT_BURST_BYTES = 2 * 1500


class CbqClass:
    """One CBQ class: a rate (token bucket), a priority, a queue."""

    def __init__(
        self,
        name: str,
        parent: Optional["CbqClass"],
        rate_bps: float,
        priority: int = 1,
        bounded: bool = False,
        qlimit: int = DEFAULT_QUEUE_LIMIT,
        burst_bytes: float = DEFAULT_BURST_BYTES,
        ceil_bps: Optional[float] = None,
    ):
        self.name = name
        self.parent = parent
        self.children: List["CbqClass"] = []
        if parent is not None:
            parent.children.append(self)
        self.rate = rate_bps / 8.0          # bytes/second
        # The borrowing ceiling (HTB-style): how fast the class may go
        # when ancestors have spare rate.  Defaults to the rate itself
        # (no borrowing) — giving a class low delay therefore requires
        # allocating it bandwidth, which is precisely the CBQ coupling
        # the paper contrasts H-FSC against.  ``bounded`` forces it.
        if bounded or ceil_bps is None:
            ceil_bps = rate_bps
        self.ceil = ceil_bps / 8.0
        self.priority = priority
        self.bounded = bounded
        self.queue = PacketQueue(qlimit)
        self.burst = burst_bytes
        self.tokens = burst_bytes
        self.ctokens = burst_bytes
        self.last_update = 0.0
        self.bytes_sent = 0
        self.borrowed_bytes = 0

    # ------------------------------------------------------------------
    def refill(self, now: float) -> None:
        elapsed = max(0.0, now - self.last_update)
        self.last_update = now
        self.tokens = min(self.burst, self.tokens + elapsed * self.rate)
        self.ctokens = min(self.burst, self.ctokens + elapsed * self.ceil)

    @property
    def is_leaf(self) -> bool:
        return not self.children

    def __repr__(self) -> str:
        return (
            f"CbqClass({self.name!r}, rate={self.rate * 8:.0f}bps, "
            f"prio={self.priority}, backlog={len(self.queue)})"
        )


class CbqInstance(ClassSchedulerInstance):
    """CBQ-lite over a class tree; flows map to classes via filter
    records, like the H-FSC instance."""

    def __init__(self, plugin, link_bps: float = 10_000_000, **config):
        super().__init__(plugin, **config)
        self.root = CbqClass("root", None, rate_bps=link_bps)
        self.default_class: Optional[CbqClass] = None
        self._classes: Dict[str, CbqClass] = {"root": self.root}
        # Per-priority round-robin rotations over leaves.
        self._rotations: Dict[int, Deque[CbqClass]] = {}
        self._backlog = 0

    # ------------------------------------------------------------------
    # Hierarchy construction
    # ------------------------------------------------------------------
    def add_class(
        self,
        name: str,
        parent: str = "root",
        rate_bps: float = 1_000_000,
        priority: int = 1,
        bounded: bool = False,
        default: bool = False,
        qlimit: int = DEFAULT_QUEUE_LIMIT,
        burst_bytes: float = DEFAULT_BURST_BYTES,
        ceil_bps: Optional[float] = None,
    ) -> CbqClass:
        if name in self._classes:
            raise ConfigurationError(f"duplicate CBQ class {name!r}")
        parent_class = self._classes.get(parent)
        if parent_class is None:
            raise ConfigurationError(f"unknown parent class {parent!r}")
        cls = CbqClass(name, parent_class, rate_bps, priority, bounded,
                       qlimit, burst_bytes, ceil_bps)
        self._classes[name] = cls
        if default:
            self.default_class = cls
        return cls

    # ------------------------------------------------------------------
    # Flow plumbing (same shape as H-FSC)
    # ------------------------------------------------------------------
    def _class_for(self, packet: Packet, ctx: PluginContext) -> Optional[CbqClass]:
        if ctx.slot is not None:
            if not isinstance(ctx.slot.private, CbqClass):
                self.on_flow_created(ctx.flow, ctx.slot)
            return ctx.slot.private
        return self.default_class

    # ------------------------------------------------------------------
    # Scheduler contract
    # ------------------------------------------------------------------
    def enqueue(self, packet: Packet, ctx: PluginContext) -> bool:
        cls = self._class_for(packet, ctx)
        if cls is None or not cls.is_leaf:
            return False
        if not cls.queue.push(packet):
            return False
        self._backlog += 1
        rotation = self._rotations.setdefault(cls.priority, deque())
        if cls not in rotation:
            rotation.append(cls)
        return True

    def _find_lender(self, cls: CbqClass, size: int, now: float) -> Optional[CbqClass]:
        """Self if underlimit, else the nearest underlimit ancestor we
        may borrow from.  Every class's bucket is charged for its whole
        subtree's traffic (see :meth:`_charge_chain`), so an ancestor is
        only underlimit when the subtree genuinely has spare rate —
        without this, the root would lend unconditionally and rates
        would not bind."""
        cls.refill(now)
        if cls.tokens >= size:
            return cls
        if cls.ctokens < size:
            return None          # above its ceiling: may not borrow more
        node = cls.parent
        while node is not None:
            node.refill(now)
            if node.tokens >= size:
                return node
            node = node.parent
        return None

    @staticmethod
    def _charge_chain(cls: CbqClass, size: int) -> None:
        """Deduct a send from the class and every ancestor (tokens may
        go negative: the debt is what rate-limits an overlimit class)."""
        cls.ctokens -= size
        node: Optional[CbqClass] = cls
        while node is not None:
            node.tokens -= size
            node = node.parent

    def dequeue(self, now: float) -> Optional[Packet]:
        for priority in sorted(self._rotations):
            rotation = self._rotations[priority]
            for _ in range(len(rotation)):
                cls = rotation[0]
                head = cls.queue.head()
                if head is None:
                    rotation.popleft()
                    continue
                lender = self._find_lender(cls, head.length, now)
                if lender is None:
                    rotation.rotate(-1)
                    continue
                packet = cls.queue.pop()
                self._charge_chain(cls, packet.length)
                if lender is not cls:
                    cls.borrowed_bytes += packet.length
                cls.bytes_sent += packet.length
                self._backlog -= 1
                rotation.rotate(-1)
                if not cls.queue and cls in rotation:
                    rotation.remove(cls)
                self._account_sent(packet)
                packet.annotations["cbq_class"] = cls.name
                return packet
        return None

    def backlog(self) -> int:
        return self._backlog

    def class_stats(self) -> Dict[str, Dict[str, float]]:
        return {
            name: {
                "bytes_sent": cls.bytes_sent,
                "borrowed": cls.borrowed_bytes,
                "backlog": len(cls.queue),
            }
            for name, cls in self._classes.items()
        }


class CbqPlugin(SchedulerPlugin):
    """The CBQ-lite loadable module (comparison baseline for H-FSC)."""

    name = "cbq"
    instance_class = CbqInstance
