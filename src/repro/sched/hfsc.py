"""The Hierarchical Fair Service Curve scheduler plugin (§6).

A faithful Python implementation of H-FSC (Stoica, Zhang & Ng, SIGCOMM
'97), the plugin the paper ported from CMU: a class hierarchy where each
class may carry

* a **real-time service curve** (``rsc``, leaves only) — guarantees
  service amount/deadline regardless of the hierarchy, giving the
  decoupled delay/bandwidth allocation the paper highlights; and
* a **link-sharing service curve** (``fsc``) — distributes excess
  bandwidth by hierarchical virtual-time fairness.

Dequeue applies the two criteria in the canonical order: serve the
eligible real-time leaf with the earliest deadline if any (this is what
protects guarantees), otherwise descend the hierarchy picking the active
child with the smallest virtual time.

The upper-limit curve of later H-FSC variants is intentionally not
implemented (the paper's port predates it).

Packets map to leaf classes via the flow-table soft state: a filter
record is bound to a class with :meth:`HfscInstance.attach_filter`, and
flows derived from it inherit the class; unmatched traffic goes to a
default class.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from ..core.errors import ConfigurationError
from ..core.messages import Message
from ..core.plugin import PluginContext
from ..net.packet import Packet
from .base import DEFAULT_QUEUE_LIMIT, ClassSchedulerInstance, PacketQueue, SchedulerPlugin
from .curves import INFINITY, RuntimeCurve, ServiceCurve


class HfscClass:
    """One node of the H-FSC class hierarchy."""

    def __init__(
        self,
        name: str,
        parent: Optional["HfscClass"],
        rsc: Optional[ServiceCurve] = None,
        fsc: Optional[ServiceCurve] = None,
        qlimit: int = DEFAULT_QUEUE_LIMIT,
    ):
        self.name = name
        self.parent = parent
        self.children: List["HfscClass"] = []
        if parent is not None:
            parent.children.append(self)
        self.rsc = rsc
        self.fsc = fsc
        self.queue = PacketQueue(qlimit)      # leaves only
        # Total bytes this class has sent (shared by both criteria).
        self.cumul = 0.0
        # Real-time state (leaves with an rsc).
        self.deadline_curve = RuntimeCurve()
        self.eligible_time = INFINITY
        self.deadline_time = INFINITY
        self.rt_active = False
        # Link-sharing state.
        self.virtual_curve = RuntimeCurve()
        self.vt = 0.0
        self.cvtmax = 0.0                      # max vt ever seen among children
        self.active_children: List["HfscClass"] = []

    # ------------------------------------------------------------------
    @property
    def is_leaf(self) -> bool:
        return not self.children

    @property
    def ls_active(self) -> bool:
        if self.is_leaf:
            return bool(self.queue)
        return bool(self.active_children)

    def __repr__(self) -> str:
        return f"HfscClass({self.name!r}, vt={self.vt:.3f}, backlog={len(self.queue)})"


class HfscInstance(ClassSchedulerInstance):
    """An H-FSC scheduler instance for one interface."""

    def __init__(self, plugin, **config):
        super().__init__(plugin, **config)
        self.root = HfscClass("root", None)
        self.default_class: Optional[HfscClass] = None
        self._classes: Dict[str, HfscClass] = {"root": self.root}
        self._rt_leaves: List[HfscClass] = []
        self._backlog = 0

    # ------------------------------------------------------------------
    # Hierarchy construction (control path)
    # ------------------------------------------------------------------
    def add_class(
        self,
        name: str,
        parent: str = "root",
        rsc: Optional[ServiceCurve] = None,
        fsc: Optional[ServiceCurve] = None,
        default: bool = False,
        qlimit: int = DEFAULT_QUEUE_LIMIT,
    ) -> HfscClass:
        if name in self._classes:
            raise ConfigurationError(f"duplicate H-FSC class {name!r}")
        parent_class = self._classes.get(parent)
        if parent_class is None:
            raise ConfigurationError(f"unknown parent class {parent!r}")
        if parent_class.queue and parent_class.is_leaf:
            raise ConfigurationError(f"cannot add children to backlogged leaf {parent!r}")
        if rsc is not None and parent != "root" and not parent_class.is_leaf:
            pass  # rsc is honoured on leaves only; checked at enqueue time
        cls = HfscClass(name, parent_class, rsc=rsc, fsc=fsc, qlimit=qlimit)
        self._classes[name] = cls
        if default:
            self.default_class = cls
        return cls

    # ------------------------------------------------------------------
    # Flow plumbing
    # ------------------------------------------------------------------
    def _class_for(self, packet: Packet, ctx: PluginContext) -> Optional[HfscClass]:
        if ctx.slot is not None:
            if ctx.slot.private is None:
                self.on_flow_created(ctx.flow, ctx.slot)
            return ctx.slot.private
        return self.default_class

    # ------------------------------------------------------------------
    # Activation bookkeeping
    # ------------------------------------------------------------------
    def _set_active(self, leaf: HfscClass, now: float, next_len: int) -> None:
        """Leaf transitions idle -> backlogged (first packet queued)."""
        if leaf.rsc is not None:
            leaf.deadline_curve.min_with(leaf.rsc, now, leaf.cumul)
            self._update_ed(leaf, next_len)
            if not leaf.rt_active:
                leaf.rt_active = True
                self._rt_leaves.append(leaf)
        # Link-share: activate up the hierarchy.
        cls = leaf
        while cls.parent is not None:
            parent = cls.parent
            newly_active = cls not in parent.active_children
            if newly_active:
                parent.active_children.append(cls)
                # Virtual time starts at the furthest any sibling got.
                cls.vt = max(parent.cvtmax, cls.vt)
                if cls.fsc is not None:
                    cls.virtual_curve.min_with(cls.fsc, cls.vt, cls.cumul)
                parent.cvtmax = max(parent.cvtmax, cls.vt)
            if not newly_active:
                break
            cls = parent

    def _update_ed(self, leaf: HfscClass, next_len: int) -> None:
        """Refresh the eligible/deadline pair for the head packet."""
        leaf.eligible_time = leaf.deadline_curve.x_at_y(leaf.cumul)
        leaf.deadline_time = leaf.deadline_curve.x_at_y(leaf.cumul + next_len)

    def _set_passive(self, leaf: HfscClass) -> None:
        """Leaf went empty: deactivate rt and the link-share chain."""
        if leaf.rt_active:
            leaf.rt_active = False
            self._rt_leaves.remove(leaf)
            leaf.eligible_time = INFINITY
            leaf.deadline_time = INFINITY
        cls = leaf
        while cls.parent is not None and not cls.ls_active:
            parent = cls.parent
            if cls in parent.active_children:
                parent.active_children.remove(cls)
            cls = parent

    # ------------------------------------------------------------------
    # Scheduler contract
    # ------------------------------------------------------------------
    def enqueue(self, packet: Packet, ctx: PluginContext) -> bool:
        leaf = self._class_for(packet, ctx)
        if leaf is None:
            return False
        if not leaf.is_leaf:
            raise ConfigurationError(f"class {leaf.name!r} is not a leaf")
        was_empty = not leaf.queue
        if not leaf.queue.push(packet):
            return False
        self._backlog += 1
        if was_empty:
            self._set_active(leaf, ctx.now, packet.length)
        return True

    def dequeue(self, now: float) -> Optional[Packet]:
        leaf = self._select_realtime(now)
        realtime = leaf is not None
        if leaf is None:
            leaf = self._select_linkshare()
        if leaf is None:
            return None
        packet = leaf.queue.pop()
        assert packet is not None
        self._backlog -= 1
        # Charge the service along the whole root->leaf path.  Both
        # criteria share ``cumul``, so link-share fairness accounts for
        # bytes delivered under real-time guarantees (the H-FSC design).
        cls = leaf
        while cls.parent is not None:
            cls.cumul += packet.length
            if cls.fsc is not None and not cls.virtual_curve.is_empty:
                cls.vt = cls.virtual_curve.x_at_y(cls.cumul)
                cls.parent.cvtmax = max(cls.parent.cvtmax, cls.vt)
            cls = cls.parent
        self.root.cumul += packet.length
        if leaf.rsc is not None and leaf.rt_active:
            head = leaf.queue.head()
            if head is not None:
                self._update_ed(leaf, head.length)
        if not leaf.queue:
            self._set_passive(leaf)
        self._account_sent(packet)
        # ``realtime`` is kept for introspection by tests/benchmarks.
        packet.annotations["hfsc_realtime"] = realtime
        packet.annotations["hfsc_class"] = leaf.name
        return packet

    def _select_realtime(self, now: float) -> Optional[HfscClass]:
        best: Optional[HfscClass] = None
        for leaf in self._rt_leaves:
            if leaf.eligible_time <= now and leaf.queue:
                if best is None or leaf.deadline_time < best.deadline_time:
                    best = leaf
        return best

    def _select_linkshare(self) -> Optional[HfscClass]:
        cls = self.root
        while not cls.is_leaf:
            candidates = [c for c in cls.active_children if c.ls_active]
            if not candidates:
                return None
            cls = min(candidates, key=lambda c: c.vt)
        return cls if cls.queue else None

    def backlog(self) -> int:
        return self._backlog

    def class_stats(self) -> Dict[str, Dict[str, float]]:
        return {
            name: {
                "cumul_bytes": cls.cumul,
                "backlog": len(cls.queue),
                "vt": cls.vt,
            }
            for name, cls in self._classes.items()
        }


class HfscPlugin(SchedulerPlugin):
    """The H-FSC loadable module (the paper's CMU port)."""

    name = "hfsc"
    instance_class = HfscInstance

    def handle_custom(self, message: Message):
        if message.type == "add_class":
            instance: HfscInstance = message.args.pop("instance")
            return instance.add_class(**message.args)
        if message.type == "attach_filter":
            instance = message.args["instance"]
            instance.attach_filter(message.args["record"], message.args["class_name"])
            return True
        return super().handle_custom(message)
