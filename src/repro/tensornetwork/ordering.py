"""The contraction planner.

The efficiency of tensor-network simulation is dominated by the order in
which nodes are contracted (the paper notes this for its TN-based baseline).
Every contraction in the library is planned by :func:`contract_greedy` and
then replayed as a flat sequence of ``tensordot`` calls
(:class:`repro.tensornetwork.plan.ContractionPlan`).  The planner works on
integers only — each node is the tuple of its edge ids, each edge id has a
dimension — so planning never touches a tensor entry.  Two pick rules share
it:

* ``"greedy"`` (the default everywhere) — repeatedly contract the connected
  pair whose result tensor is smallest, ties broken by the largest immediate
  size reduction, then by list order.  The same flavour of heuristic the
  Google TensorNetwork / opt_einsum "greedy" path uses.
* ``"sequential"`` — contract the first node (in list order) that has a
  neighbour with its first neighbour; can build huge intermediates and is
  kept as the ablation baseline.

Disconnected components are joined afterwards by outer products of the
first two tensors in the list, and those steps count towards the peak.
"""

from __future__ import annotations

import heapq
from typing import Dict, List, Sequence, Tuple

from repro.tensornetwork.network import TensorNetwork
from repro.utils.validation import ValidationError

from repro.xp import declare_seam

declare_seam(__name__, mode="host")

__all__ = ["contract_greedy", "estimate_contraction_cost"]

#: One schedule step: positions of the two operands in the evolving tensor
#: list (both are removed and the result is appended) plus the contracted
#: axes of each (empty axes = outer product).
Step = Tuple[int, int, Tuple[int, ...], Tuple[int, ...]]


def contract_greedy(network: TensorNetwork, strategy: str = "greedy") -> Tuple[List[Step], int]:
    """Plan the contraction of ``network`` to one tensor; return ``(steps, peak)``.

    ``peak`` is the entry count of the largest tensor a step produces.  The
    network is left untouched.  A 3-node chain contracts its cheaper end
    first, then the remaining pair (the result of a step is appended to the
    list, so it sits at the last position)::

        >>> import numpy as np
        >>> from repro.tensornetwork import TensorNetwork
        >>> network = TensorNetwork()
        >>> a = network.add_node(np.ones((2, 4)))
        >>> b = network.add_node(np.ones((4, 3)))
        >>> c = network.add_node(np.ones(3))
        >>> _ = network.connect(a.edges[1], b.edges[0])
        >>> _ = network.connect(b.edges[1], c.edges[0])
        >>> steps, peak = contract_greedy(network)
        >>> steps
        [(1, 2, (1,), (0,)), (0, 1, (1,), (0,))]
        >>> peak
        4
    """
    if strategy not in ("greedy", "sequential"):
        raise ValidationError(f"unknown contraction strategy {strategy!r}")
    legs = [tuple(edge.id for edge in node.edges) for node in network.nodes]
    dims = {edge.id: edge.dimension for node in network.nodes for edge in node.edges}
    return _schedule(legs, dims, strategy == "greedy")


def estimate_contraction_cost(network: TensorNetwork) -> int:
    """Peak intermediate entry count of the greedy contraction.

    Equals :attr:`ContractionPlan.peak_intermediate_entries` of the same
    plan; a single-node network reports its own size.
    """
    steps, peak = contract_greedy(network)
    if not steps:
        return max((node.size for node in network.nodes), default=0)
    return peak


def _schedule(
    legs: Sequence[Tuple[int, ...]], dims: Dict[int, int], greedy: bool
) -> Tuple[List[Step], int]:
    """The planner proper, on edge-id tuples.

    Nodes are numbered in creation order (inputs first, then one new number
    per step), which is also their order in the evolving list.  A candidate
    pair ``(x, y)`` with ``x`` earlier is keyed by its cost (greedy only),
    then by ``x``'s number and the first axis of ``x`` leading to ``y`` —
    the order in which a scan of the node list meets the pair — and sits in
    a heap.  A merge kills every pair of its operands (skipped when popped)
    and pushes the new node's pairs; no other pair's key changes.
    """
    alive: Dict[int, Tuple[int, ...]] = dict(enumerate(legs))
    sizes = {node: _product(dims[label] for label in labels) for node, labels in alive.items()}
    holders: Dict[int, List[int]] = {}
    for node, labels in alive.items():
        for label in labels:
            holders.setdefault(label, []).append(node)
    for label, owners in holders.items():
        if len(owners) == 2 and owners[0] == owners[1]:
            raise ValidationError("self-contraction (trace) is not supported")

    heap: list = []

    def push(x: int, y: int | None = None) -> None:
        # Pairs of x with later nodes (all of them, or only y).
        first_axis: Dict[int, int] = {}
        shared: Dict[int, int] = {}
        for axis, label in enumerate(alive[x]):
            owners = holders[label]
            if len(owners) < 2:
                continue
            other = owners[0] if owners[1] == x else owners[1]
            if other < x or (y is not None and other != y):
                continue
            first_axis.setdefault(other, axis)
            shared[other] = shared.get(other, 1) * dims[label]
        for other, axis in first_axis.items():
            result = (sizes[x] // shared[other]) * (sizes[other] // shared[other])
            cost = (result, result - sizes[x] - sizes[other]) if greedy else (0, 0)
            heapq.heappush(heap, (cost, x, axis, other, result))

    for node in range(len(legs)):
        push(node)

    order = list(range(len(legs)))
    steps: List[Step] = []

    def merge(x: int, y: int) -> int:
        # Record the step contracting x with y; return the new node's number.
        legs_x, legs_y = alive.pop(x), alive.pop(y)
        shared = set(legs_x) & set(legs_y)
        contracted = [label for label in legs_x if label in shared]
        position_x, position_y = order.index(x), order.index(y)
        steps.append((
            position_x,
            position_y,
            tuple(legs_x.index(label) for label in contracted),
            tuple(legs_y.index(label) for label in contracted),
        ))
        del order[max(position_x, position_y)], order[min(position_x, position_y)]
        merged = len(legs) + len(steps) - 1
        order.append(merged)
        alive[merged] = tuple(label for label in legs_x if label not in shared) + tuple(
            label for label in legs_y if label not in shared
        )
        return merged

    peak = 0
    while heap:
        _, x, _, y, result = heapq.heappop(heap)
        if x not in alive or y not in alive:
            continue
        merged = merge(x, y)
        sizes[merged] = result
        peak = max(peak, result)
        for label in alive[merged]:
            owners = holders[label]
            owners[owners.index(x) if x in owners else owners.index(y)] = merged
        neighbours = {
            owner for label in alive[merged] for owner in holders[label] if owner != merged
        }
        for other in neighbours:
            push(other, merged)

    while len(order) > 1:
        x, y = order[0], order[1]
        result = sizes[x] * sizes[y]
        sizes[merge(x, y)] = result
        peak = max(peak, result)
    return steps, peak


def _product(values) -> int:
    result = 1
    for value in values:
        result *= int(value)
    return result
