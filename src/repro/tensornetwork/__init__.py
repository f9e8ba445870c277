"""A small from-scratch tensor-network engine.

Replaces the Google TensorNetwork dependency used by the paper's reference
implementation: nodes wrapping dense numpy tensors, edges, pairwise
contraction with a configurable intermediate-size budget, one contraction
planner, and builders that turn circuits into the diagrams of Sections III
and IV of the paper.
"""

from repro.tensornetwork.circuit_to_tn import (
    circuit_amplitude_network,
    instruction_nodes,
    noisy_doubled_network,
    noisy_observable_network,
    operator_amplitude_network,
    resolve_product_state,
    substituted_split_networks,
)
from repro.tensornetwork.network import ContractionMemoryError, TensorNetwork, contract_nodes
from repro.tensornetwork.node import Edge, Node, connect
from repro.tensornetwork.plan import ContractionPlan
from repro.tensornetwork.ordering import contract_greedy, estimate_contraction_cost

__all__ = [
    "TensorNetwork",
    "ContractionMemoryError",
    "ContractionPlan",
    "contract_nodes",
    "Node",
    "Edge",
    "connect",
    "contract_greedy",
    "estimate_contraction_cost",
    "circuit_amplitude_network",
    "instruction_nodes",
    "noisy_doubled_network",
    "noisy_observable_network",
    "operator_amplitude_network",
    "substituted_split_networks",
    "resolve_product_state",
]
