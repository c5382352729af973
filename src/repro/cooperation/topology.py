"""Self-stabilising topology discovery and Byzantine-resilient delivery.

Section V-C: "Traditional Byzantine resilient (agreement) algorithms use
2f+1 vertex-disjoint paths to ensure message delivery in the presence of up
to f Byzantine nodes.  The question of how these paths are identified is
related to the fundamental problem of topology discovery. ... algorithms for
topology discovery should be self-stabilizing."

:class:`TopologyDiscovery` rebuilds each node's view of the network graph
from periodically flooded neighbourhood reports; stale reports expire, which
is what makes the discovery self-stabilising (arbitrary initial state is
flushed after one expiry interval).  The module also provides the
vertex-disjoint-path delivery primitive used to tolerate Byzantine relays.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable, Dict, FrozenSet, Iterable, List, Optional, Set

# Only the two functions that call networkx import it, so campaigns that
# import ``repro.cooperation`` never load it.
if TYPE_CHECKING:
    import networkx as nx


@dataclass
class NeighborhoodReport:
    """One node's report of its current one-hop neighbourhood."""

    node_id: str
    neighbors: FrozenSet[str]
    reported_at: float


class TopologyDiscovery:
    """Builds and maintains a local view of the network topology."""

    def __init__(self, own_id: str, expiry: float = 1.0):
        if expiry <= 0:
            raise ValueError("expiry must be positive")
        self.own_id = own_id
        self.expiry = expiry
        self._reports: Dict[str, NeighborhoodReport] = {}

    def local_report(self, neighbors: Iterable[str], now: float) -> NeighborhoodReport:
        """Produce (and absorb) this node's own neighbourhood report."""
        report = NeighborhoodReport(
            node_id=self.own_id, neighbors=frozenset(neighbors), reported_at=now
        )
        self.absorb(report)
        return report

    def absorb(self, report: NeighborhoodReport) -> None:
        """Absorb a (possibly relayed) neighbourhood report, keeping the freshest."""
        existing = self._reports.get(report.node_id)
        if existing is None or report.reported_at >= existing.reported_at:
            self._reports[report.node_id] = report

    def purge(self, now: float) -> None:
        """Drop expired reports — the self-stabilisation mechanism."""
        self._reports = {
            node: report
            for node, report in self._reports.items()
            if now - report.reported_at <= self.expiry
        }

    def graph(self, now: Optional[float] = None) -> nx.Graph:
        """Current topology view as an undirected graph (fresh reports only)."""
        import networkx as nx

        if now is not None:
            self.purge(now)
        graph = nx.Graph()
        for report in self._reports.values():
            graph.add_node(report.node_id)
            for neighbor in report.neighbors:
                graph.add_edge(report.node_id, neighbor)
        return graph

    def known_nodes(self, now: Optional[float] = None) -> Set[str]:
        if now is not None:
            self.purge(now)
        nodes: Set[str] = set()
        for report in self._reports.values():
            nodes.add(report.node_id)
            nodes.update(report.neighbors)
        return nodes


def vertex_disjoint_paths(graph: nx.Graph, source: str, target: str) -> List[List[str]]:
    """Maximal set of internally vertex-disjoint simple paths between two nodes."""
    import networkx as nx

    if source not in graph or target not in graph:
        return []
    if source == target:
        return [[source]]
    try:
        paths = list(nx.node_disjoint_paths(graph, source, target))
    except nx.NetworkXNoPath:
        return []
    return [list(path) for path in paths]


def byzantine_delivery_possible(
    graph: nx.Graph, source: str, target: str, max_byzantine: int
) -> bool:
    """Whether 2f+1 vertex-disjoint paths exist, enabling delivery despite f Byzantine relays."""
    if max_byzantine < 0:
        raise ValueError("max_byzantine must be >= 0")
    required = 2 * max_byzantine + 1
    paths = vertex_disjoint_paths(graph, source, target)
    if source in graph and target in graph and graph.has_edge(source, target):
        # The direct edge involves no relay at all and is always trustworthy.
        return True
    return len(paths) >= required


def deliver_with_disjoint_paths(
    graph: nx.Graph,
    source: str,
    target: str,
    message: Any,
    max_byzantine: int,
    byzantine_nodes: Optional[Set[str]] = None,
    corrupt: Optional[Callable[[Any], Any]] = None,
) -> Optional[Any]:
    """Simulate multi-path delivery with majority voting at the target.

    Each vertex-disjoint path carries a copy of ``message``; copies relayed
    through a Byzantine node are replaced by ``corrupt(message)``.  The target
    accepts the majority value among received copies.  Returns the accepted
    value, or ``None`` when no majority exists (delivery not guaranteed — the
    caller should check :func:`byzantine_delivery_possible` first).
    """
    byzantine_nodes = byzantine_nodes or set()
    corrupt = corrupt or (lambda m: ("corrupted", m))
    paths = vertex_disjoint_paths(graph, source, target)
    if not paths:
        return None
    received: List[Any] = []
    for path in paths[: 2 * max_byzantine + 1] if max_byzantine >= 0 else paths:
        relays = path[1:-1]
        if any(relay in byzantine_nodes for relay in relays):
            received.append(corrupt(message))
        else:
            received.append(message)
    if not received:
        return None
    counts = Counter(repr(value) for value in received)
    winner_repr, winner_count = counts.most_common(1)[0]
    if winner_count <= len(received) // 2:
        return None
    for value in received:
        if repr(value) == winner_repr:
            return value
    return None
