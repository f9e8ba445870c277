"""Tensor network container and pairwise contraction."""

from __future__ import annotations

from typing import List, Optional, Sequence

from repro.tensornetwork.node import Edge, Node, connect
from repro.utils.validation import ValidationError

from repro.xp import declare_seam
from repro.xp import host as np

declare_seam(__name__, mode="host")

__all__ = ["TensorNetwork", "ContractionMemoryError", "contract_nodes"]


class ContractionMemoryError(MemoryError):
    """Raised when a contraction would exceed the configured intermediate-size budget.

    The benchmark harness catches this to report "MO" (memory out) entries,
    mirroring the MO cells of the paper's Table II.
    """


def contract_nodes(node_a: Node, node_b: Node, name: str | None = None) -> Node:
    """Contract all shared edges between two nodes and return the result node.

    The result's edges are the remaining edges of ``node_a`` (in axis order)
    followed by the remaining edges of ``node_b``; edge objects are re-pointed
    at the new node so the rest of the network stays consistent.
    """
    if node_a is node_b:
        raise ValidationError("self-contraction (trace) is not supported")
    shared: List[Edge] = []
    for edge in node_a.edges:
        if not edge.is_dangling and edge.other(node_a) is node_b and edge not in shared:
            shared.append(edge)

    axes_a = [edge.axis_of(node_a) for edge in shared]
    axes_b = [edge.axis_of(node_b) for edge in shared]
    if shared:
        tensor = np.tensordot(node_a.tensor, node_b.tensor, axes=(axes_a, axes_b))
    else:
        tensor = np.tensordot(node_a.tensor, node_b.tensor, axes=0)

    result = Node(tensor, name=name or f"({node_a.name}*{node_b.name})")
    remaining_a = [edge for axis, edge in enumerate(node_a.edges) if axis not in axes_a]
    remaining_b = [edge for axis, edge in enumerate(node_b.edges) if axis not in axes_b]
    new_edges = remaining_a + remaining_b
    for new_axis, edge in enumerate(new_edges):
        if edge.node1 is node_a or edge.node1 is node_b:
            edge.node1 = result
            edge.axis1 = new_axis
        elif edge.node2 is node_a or edge.node2 is node_b:
            edge.node2 = result
            edge.axis2 = new_axis
        else:  # pragma: no cover - defensive
            raise ValidationError("inconsistent edge bookkeeping during contraction")
    result.edges = new_edges
    return result


class TensorNetwork:
    """A collection of nodes with shared edges.

    :meth:`contract` plans the contraction on the network's structure and
    replays it over the node tensors; the network itself is left untouched.
    """

    def __init__(self, name: str = "network", max_intermediate_size: int | None = None) -> None:
        self.name = name
        self.nodes: List[Node] = []
        #: Maximum number of entries allowed in any intermediate tensor.  None
        #: disables the check.
        self.max_intermediate_size = max_intermediate_size

    # ------------------------------------------------------------------
    def add_node(self, tensor: np.ndarray, name: str | None = None) -> Node:
        """Wrap ``tensor`` in a node and add it to the network."""
        node = Node(tensor, name=name)
        self.nodes.append(node)
        return node

    def add(self, node: Node) -> Node:
        """Add an existing node to the network."""
        self.nodes.append(node)
        return node

    def connect(self, edge_a: Edge, edge_b: Edge, name: str | None = None) -> Edge:
        """Connect two dangling edges of nodes in this network."""
        return connect(edge_a, edge_b, name=name)

    # ------------------------------------------------------------------
    @property
    def num_nodes(self) -> int:
        """Number of nodes currently in the network."""
        return len(self.nodes)

    def dangling_edges(self) -> List[Edge]:
        """All dangling edges of the network, in node insertion order."""
        edges: List[Edge] = []
        for node in self.nodes:
            edges.extend(node.dangling_edges())
        return edges

    def total_size(self) -> int:
        """Sum of entries over all node tensors (a coarse memory estimate)."""
        return sum(node.size for node in self.nodes)

    # ------------------------------------------------------------------
    def contract(
        self,
        strategy: str = "greedy",
        output_edge_order: Optional[Sequence[Edge]] = None,
    ) -> np.ndarray:
        """Contract the whole network down to a single tensor.

        Parameters
        ----------
        strategy:
            ``"greedy"`` (default) or ``"sequential"``, the pick rules of
            :func:`repro.tensornetwork.ordering.contract_greedy`.
        output_edge_order:
            Optional ordering of the remaining dangling edges for the final
            transpose.

        Raises :class:`ContractionMemoryError` before any contraction when
        the planned peak exceeds ``max_intermediate_size``.
        """
        from repro.tensornetwork.plan import ContractionPlan

        if not self.nodes:
            raise ValidationError("cannot contract an empty network")
        plan = ContractionPlan.for_network(self, strategy)
        tensor = plan.replay([node.tensor for node in self.nodes])
        if output_edge_order is None:
            return tensor
        # The final axes follow the same list evolution as the tensors.
        legs = [list(node.edges) for node in self.nodes]
        for position_a, position_b, axes_a, axes_b in plan.steps:
            merged = [edge for axis, edge in enumerate(legs[position_a]) if axis not in axes_a]
            merged += [edge for axis, edge in enumerate(legs[position_b]) if axis not in axes_b]
            del legs[max(position_a, position_b)], legs[min(position_a, position_b)]
            legs.append(merged)
        if len(output_edge_order) != len(legs[0]):
            raise ValidationError("output_edge_order must list every remaining dangling edge")
        return np.transpose(tensor, [legs[0].index(edge) for edge in output_edge_order])

    def contract_to_scalar(self, strategy: str = "greedy") -> complex:
        """Contract a network with no dangling edges to a complex number."""
        tensor = self.contract(strategy=strategy)
        if tensor.size != 1:
            raise ValidationError(
                f"network does not contract to a scalar (residual shape {tensor.shape})"
            )
        return complex(tensor.reshape(()))
