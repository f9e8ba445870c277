"""Reusable contraction plans.

The planner (:func:`repro.tensornetwork.ordering.contract_greedy`) decides
which node pair to contract from tensor *shapes* only, so two networks with
the same topology and the same tensor shapes contract in the same order
regardless of the tensor values.  Every user of plans exploits this: every
trajectory of a fixed circuit produces the same network topology (only the
sampled Kraus tensor values change), so does every substituted term of
Algorithm 1 (only the inserted SVD factors change), and so does every
binding of a parametric circuit (only the parametric gate tensors change).
The ordering work and all node/edge bookkeeping are paid once.

:meth:`ContractionPlan.for_network` plans a template network without
touching a tensor; :meth:`ContractionPlan.execute` replays the positional
schedule over a plain list of tensors as a flat sequence of ``tensordot``
calls.  :meth:`ContractionPlan.record` is the two in a row, and
:meth:`repro.tensornetwork.TensorNetwork.contract` is the same replay.  The
full replay is the slow per-evaluation oracle of the batched replay below.

When only a known subset of inputs varies between replays (the sampled Kraus
tensors of a trajectory, the substituted SVD factors of an approximation
term), :meth:`ContractionPlan.specialize` partially evaluates the plan over
the static inputs once — every contraction whose operands are (transitively)
independent of the variable positions is computed at specialisation time —
leaving a :class:`SpecializedPlan` that replays only the residual,
variable-dependent steps, for a whole *batch* of variable values at once.
Each residual step becomes one ``matmul`` over the batch, on the same 2-D
operands that ``tensordot`` would hand to ``dot`` for each batch row; steps
that contract nothing (outer products) keep one ``tensordot`` per row, since
the batched product rounds them differently.  Row ``i`` of a batched replay
is therefore bit-identical to a full replay of row ``i``'s inputs; the
static prefix is paid once and the Python dispatch once per batch.

Inputs that change once per call rather than once per row — the parametric
gates of a circuit — are *bound* positions: :meth:`SpecializedPlan.bind`
substitutes one value for each, evaluates the steps that no longer depend on
a batched input, and returns the plan a batch then replays.

Plans are recorded over whatever circuit the session hands the backend —
since the optimizing passes (:mod:`repro.circuits.passes`) run before plan
construction, a recorded schedule covers the *optimized* network (fewer
nodes after fusion/folding/pruning), and the plan-cache key is derived from
that circuit's fingerprint.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, NamedTuple, Sequence, Tuple

from repro.tensornetwork import ordering
from repro.tensornetwork.network import ContractionMemoryError, TensorNetwork
from repro.utils.validation import ValidationError
from repro.xp import declare_seam, get_namespace
from repro.xp import host as np

declare_seam(__name__, mode="dispatch")

__all__ = ["ContractionPlan", "SpecializedPlan"]

#: One slot-program step: input slots ``a``/``b``, their contracted axes, and
#: the output slot the result lands in (slots never move, unlike positions).
_SlotStep = Tuple[int, int, Tuple[int, ...], Tuple[int, ...], int]


class _BatchedStep(NamedTuple):
    """One non-static step of a :class:`SpecializedPlan`, compiled for batches.

    ``unbatched_a``/``unbatched_b`` mark operands without a batch axis
    (static or bound); a bound step has no batched operand.  ``layout`` is
    ``None`` for a per-row ``tensordot``, else the matmul recipe
    ``(layout_a, layout_b, out_shape)`` where an operand layout is
    ``(permutation or None, matrix shape)`` — ``None`` for a static operand,
    which is baked in matrix form.
    """

    slot_a: int
    slot_b: int
    axes_a: Tuple[int, ...]
    axes_b: Tuple[int, ...]
    out: int
    unbatched_a: bool
    unbatched_b: bool
    layout: tuple | None


#: Slot tiers of a specialization, in the order a step's output inherits them.
_STATIC, _BOUND, _BATCHED = 0, 1, 2


class ContractionPlan:
    """A positional pairwise contraction schedule, replayable on fresh tensors."""

    def __init__(
        self,
        steps: List[ordering.Step],
        num_inputs: int,
        peak_intermediate_entries: int = 0,
    ) -> None:
        self.steps = steps
        #: Number of tensors the plan expects (the template's node count).
        self.num_inputs = num_inputs
        #: Entry count of the largest intermediate the schedule produces
        #: (recorded at planning time; the replay cost estimate).
        self.peak_intermediate_entries = peak_intermediate_entries

    @property
    def num_steps(self) -> int:
        """Number of pairwise contractions the plan replays."""
        return len(self.steps)

    def describe(self) -> dict:
        """Plan-cost summary (what :meth:`repro.api.Executable.describe` reports)."""
        return {
            "num_inputs": self.num_inputs,
            "num_steps": self.num_steps,
            "peak_intermediate_entries": self.peak_intermediate_entries,
        }

    # ------------------------------------------------------------------
    @classmethod
    def for_network(cls, network: TensorNetwork, strategy: str = "greedy") -> "ContractionPlan":
        """Plan the contraction of ``network`` (its tensors are not touched).

        Raises :class:`ContractionMemoryError` when the planned peak exceeds
        the network's ``max_intermediate_size``.
        """
        steps, peak = ordering.contract_greedy(network, strategy)
        budget = network.max_intermediate_size
        if budget is not None and peak > budget:
            raise ContractionMemoryError(
                f"intermediate tensor with {peak} entries exceeds the budget of "
                f"{budget} entries"
            )
        return cls(steps, network.num_nodes, peak_intermediate_entries=peak)

    @classmethod
    def record(cls, network: TensorNetwork, strategy: str = "greedy") -> Tuple["ContractionPlan", complex]:
        """Plan ``network``, then contract its tensors to a scalar by replaying.

        Returns ``(plan, value)``; the network is left untouched.
        """
        plan = cls.for_network(network, strategy)
        return plan, plan.execute([node.tensor for node in network.nodes])

    # ------------------------------------------------------------------
    def replay(self, tensors: Sequence[np.ndarray]) -> np.ndarray:
        """Replay the schedule over host ``tensors`` and return the final tensor.

        ``tensors`` must match the template's node order and shapes; only the
        values may differ.  Each step removes its two operands from the list
        and appends the result, so the recorded positions stay valid.
        """
        if len(tensors) != self.num_inputs:
            raise ValidationError(
                f"plan expects {self.num_inputs} tensors, got {len(tensors)}"
            )
        arrays = list(tensors)
        for position_a, position_b, axes_a, axes_b in self.steps:
            result = _contract_step(arrays[position_a], arrays[position_b], axes_a, axes_b)
            del arrays[max(position_a, position_b)], arrays[min(position_a, position_b)]
            arrays.append(result)
        return arrays[0]

    def execute(self, tensors: Sequence[np.ndarray]) -> complex:
        """Replay the schedule over ``tensors`` and return the scalar result."""
        result = self.replay(tensors)
        if result.size != 1:
            raise ValidationError("plan did not reduce the network to a scalar")
        return complex(result.reshape(()))

    # ------------------------------------------------------------------
    def _slot_program(self) -> List[_SlotStep]:
        """The positional steps re-expressed over stable slot indices.

        Simulates the evolving-list semantics of :meth:`replay` once, so
        step ``i``'s operands become fixed slots (inputs ``0..num_inputs-1``,
        intermediates ``num_inputs + i``) that partial evaluation can reason
        about without replaying list mutations.
        """
        slots = list(range(self.num_inputs))
        program: List[_SlotStep] = []
        for index, (position_a, position_b, axes_a, axes_b) in enumerate(self.steps):
            slot_a = slots[position_a]
            slot_b = slots[position_b]
            del slots[max(position_a, position_b)], slots[min(position_a, position_b)]
            out = self.num_inputs + index
            slots.append(out)
            program.append((slot_a, slot_b, axes_a, axes_b, out))
        return program

    def specialize(
        self,
        tensors: Sequence[np.ndarray],
        variable_positions: Sequence[int],
        bound_positions: Sequence[int] = (),
    ) -> "SpecializedPlan":
        """Partially evaluate the plan over every input not listed.

        ``tensors`` supplies the static input values (entries at listed
        positions are ignored, only their shapes are used).  The returned
        :class:`SpecializedPlan` takes a batch of values per
        :meth:`~SpecializedPlan.execute` call for each ``variable_positions``
        entry, and one value per :meth:`~SpecializedPlan.bind` call for each
        ``bound_positions`` entry (binding comes first).
        """
        if len(tensors) != self.num_inputs:
            raise ValidationError(
                f"plan expects {self.num_inputs} tensors, got {len(tensors)}"
            )
        variable = {int(position) for position in variable_positions}
        bound = {int(position) for position in bound_positions}
        unknown = sorted(
            position for position in variable | bound if not 0 <= position < self.num_inputs
        )
        if unknown:
            raise ValidationError(f"variable positions {unknown} out of range")
        program = self._slot_program()
        shapes: List[Tuple[int, ...]] = [tuple(tensor.shape) for tensor in tensors]
        # Tier of every slot: static (evaluated here), bound (evaluated once
        # per bind) or batched (replayed per execute); a step's output takes
        # the higher tier of its operands.
        tiers = [
            _BATCHED if position in variable else _BOUND if position in bound else _STATIC
            for position in range(self.num_inputs)
        ]
        baked = {position: tensors[position] for position, tier in enumerate(tiers) if tier == _STATIC}
        bind_steps: List[_SlotStep] = []
        residual: List[_SlotStep] = []
        for step in program:
            slot_a, slot_b, axes_a, axes_b, out = step
            shapes.append(_contracted_shape(shapes[slot_a], shapes[slot_b], axes_a, axes_b))
            tiers.append(max(tiers[slot_a], tiers[slot_b]))
            if tiers[out] == _STATIC:
                # Every slot is read by exactly one step, so the operands go.
                baked[out] = _contract_step(baked.pop(slot_a), baked.pop(slot_b), axes_a, axes_b)
            elif tiers[out] == _BOUND:
                bind_steps.append(step)
            else:
                residual.append(step)
        bind_steps, _ = _batched_steps(bind_steps, shapes, tiers, baked)
        steps, peak = _batched_steps(residual, shapes, tiers, baked)
        return SpecializedPlan(
            baked, bind_steps, steps, sorted(variable), sorted(bound), len(shapes) - 1, peak
        )


class SpecializedPlan:
    """A partially evaluated :class:`ContractionPlan` (see :meth:`ContractionPlan.specialize`).

    Static intermediates are baked in — only those a later step reads, and
    the result once known.  :meth:`bind` evaluates the steps that depend on
    bound inputs only; :meth:`execute` substitutes a batch of values for the
    variable inputs and replays only the residual steps, once for the whole
    batch.  Row ``i`` of the result is bit-identical to a full
    :meth:`ContractionPlan.execute` replay with row ``i``'s inputs.
    """

    __slots__ = (
        "_baked", "_bind_steps", "_residual", "variable_positions",
        "bound_positions", "_result_slot", "peak_row_entries", "_device_baked",
    )

    def __init__(
        self,
        baked: Dict[int, np.ndarray],
        bind_steps: List[_BatchedStep],
        residual: List[_BatchedStep],
        variable_positions: List[int],
        bound_positions: List[int],
        result_slot: int,
        peak_row_entries: int,
    ) -> None:
        self._baked = baked
        self._bind_steps = bind_steps
        self._residual = residual
        self.variable_positions = variable_positions
        #: Inputs :meth:`bind` must supply before the plan can execute.
        self.bound_positions = bound_positions
        self._result_slot = result_slot
        #: Entry count of the largest per-row tensor a replay holds (variable
        #: inputs and residual intermediates); sizes the batch chunks.
        self.peak_row_entries = peak_row_entries
        #: Per-namespace device copies of the baked tensors, transferred once
        #: on the first device execute (only the small variable tensors move
        #: per call; see BatchedTrajectoryEngine._run_tn).
        self._device_baked: dict = {}

    def _baked_for(self, xp) -> Dict:
        if xp.device == "cpu":
            return self._baked
        cached = self._device_baked.get(xp.name)
        if cached is None:
            cached = {slot: xp.asarray(tensor) for slot, tensor in self._baked.items()}
            self._device_baked[xp.name] = cached
        return cached

    @property
    def num_residual_steps(self) -> int:
        """Contractions not baked in at specialization (per bind or per call)."""
        return len(self._bind_steps) + len(self._residual)

    def bind(self, tensors: Mapping[int, np.ndarray]) -> "SpecializedPlan":
        """Substitute one host tensor per bound position; return the plan to execute.

        The steps that depend on bound inputs only are evaluated here, once
        per binding, as the batch-free case of an :meth:`execute` step — so a
        bound plan's rows stay bit-identical to a full replay.  A plan
        without bound positions is returned as is.
        """
        if sorted(tensors) != self.bound_positions:
            raise ValidationError(
                f"bind() needs exactly the bound positions {self.bound_positions}, "
                f"got {sorted(tensors)}"
            )
        if not self.bound_positions:
            return self
        baked = {**self._baked, **tensors}
        xp = get_namespace("cpu")
        for step in self._bind_steps:
            _batched_step(baked, step, xp)
        return SpecializedPlan(
            baked, [], self._residual, self.variable_positions, [],
            self._result_slot, self.peak_row_entries,
        )

    def execute(
        self,
        substitutions: Mapping[int, np.ndarray],
        xp=None,
        max_intermediate_size: int | None = None,
    ) -> np.ndarray:
        """Return one amplitude per batch row, as a host ``complex`` array.

        ``substitutions`` maps every variable input position to a stack of
        tensors with a leading batch axis (row shapes must match the
        template's; device arrays of ``xp`` when a namespace is given — the
        baked static intermediates are transferred to that device once and
        cached).  All stacks share the batch size; a plan without variable
        inputs returns its single value as one row.  The batch is replayed in
        chunks whose rows times the largest per-row tensor stay within
        ``max_intermediate_size`` entries (``None``: one chunk).
        """
        if self.bound_positions:
            raise ValidationError(
                f"bind() values for positions {self.bound_positions} before executing"
            )
        if xp is None:
            xp = get_namespace("cpu")
        stacks = []
        for position in self.variable_positions:
            stack = substitutions.get(position)
            if stack is None:
                raise ValidationError(
                    f"missing substitution for variable input {position}"
                )
            stacks.append(stack)
        rows = stacks[0].shape[0] if stacks else 1
        if any(stack.shape[0] != rows for stack in stacks):
            raise ValidationError("substitution stacks differ in batch size")
        chunk = rows or 1
        if max_intermediate_size is not None:
            chunk = max(1, int(max_intermediate_size) // self.peak_row_entries)
        baked = self._baked_for(xp)
        amplitudes = np.empty(rows, dtype=complex)
        for start in range(0, rows, chunk):
            stop = min(start + chunk, rows)
            buffer = dict(baked)
            for position, stack in zip(self.variable_positions, stacks):
                buffer[position] = stack[start:stop]
            for step in self._residual:
                _batched_step(buffer, step, xp)
            result = buffer[self._result_slot]
            if result.size != stop - start:
                raise ValidationError("plan did not reduce the network to a scalar")
            amplitudes[start:stop] = xp.to_host(xp.reshape(result, (stop - start,)))
        return amplitudes


def _contracted_shape(shape_a, shape_b, axes_a, axes_b) -> Tuple[int, ...]:
    """Shape of ``tensordot(a, b, (axes_a, axes_b))``: free axes of ``a``, then of ``b``."""
    return tuple(dim for axis, dim in enumerate(shape_a) if axis not in axes_a) + tuple(
        dim for axis, dim in enumerate(shape_b) if axis not in axes_b
    )


def _matrix_layouts(shape_a, shape_b, axes_a, axes_b):
    """The axis orders and 2-D shapes ``tensordot`` reduces a contraction to.

    Returns ``(order_a, (rows, contracted), order_b, (contracted, cols))``:
    ``a``'s free axes then its contracted ones, ``b``'s contracted axes then
    its free ones.
    """
    free_a = [axis for axis in range(len(shape_a)) if axis not in axes_a]
    free_b = [axis for axis in range(len(shape_b)) if axis not in axes_b]
    contracted = _size(shape_a[axis] for axis in axes_a)
    return (
        free_a + list(axes_a),
        (_size(shape_a[axis] for axis in free_a), contracted),
        list(axes_b) + free_b,
        (contracted, _size(shape_b[axis] for axis in free_b)),
    )


def _batched_steps(
    residual: List[_SlotStep],
    shapes: List[Tuple[int, ...]],
    tiers: List[int],
    baked: Dict[int, np.ndarray],
) -> Tuple[List[_BatchedStep], int]:
    """Compile non-static slot steps into batched steps; also the peak row size.

    ``shapes`` holds the per-row shape of every slot and ``tiers`` its tier;
    the static slots are in ``baked``.  A step contracting at least two
    entries becomes one ``matmul`` on transposed and reshaped operands —
    per row, the same 2-D operands that ``tensordot`` hands to ``dot``, so
    each row rounds exactly as a per-row contraction does.  Outer products
    (nothing contracted) keep a ``tensordot`` per row: a batched ``matmul``
    rounds them differently.  A static operand of a ``matmul`` step is
    stored in ``baked`` already in matrix form (every slot is read by
    exactly one step); a bound one is reshaped per call.  A step without a
    batched operand (a bound step) has no batch axis in its result.
    """
    peak = 1
    steps: List[_BatchedStep] = []
    for slot_a, slot_b, axes_a, axes_b, out in residual:
        unbatched_a, unbatched_b = tiers[slot_a] != _BATCHED, tiers[slot_b] != _BATCHED
        peak = max(
            [peak, _size(shapes[out])]
            + [_size(shapes[slot]) for slot in (slot_a, slot_b) if tiers[slot] == _BATCHED]
        )
        order_a, matrix_a, order_b, matrix_b = _matrix_layouts(
            shapes[slot_a], shapes[slot_b], axes_a, axes_b
        )
        layout = None
        if matrix_a[1] >= 2:
            layouts = [
                _operand_layout(order_a, matrix_a, unbatched_a),
                _operand_layout(order_b, matrix_b, unbatched_b),
            ]
            for index, slot in enumerate((slot_a, slot_b)):
                if slot in baked:
                    baked[slot] = _as_matrix(baked[slot], layouts[index])
                    layouts[index] = None
            batch_axis = () if unbatched_a and unbatched_b else (-1,)
            layout = (layouts[0], layouts[1], batch_axis + shapes[out])
        steps.append(
            _BatchedStep(slot_a, slot_b, axes_a, axes_b, out, unbatched_a, unbatched_b, layout)
        )
    return steps, peak


def _operand_layout(order: List[int], matrix: Tuple[int, int], unbatched: bool):
    """``(permutation or None, shape)`` turning an operand into its matmul matrix.

    A batched operand keeps its leading batch axis in front.
    """
    if not unbatched:
        order = [0] + [axis + 1 for axis in order]
        matrix = (-1,) + matrix
    permutation = None if order == sorted(order) else tuple(order)
    return permutation, matrix


def _size(dims) -> int:
    size = 1
    for dim in dims:
        size *= int(dim)
    return size


def _as_matrix(tensor, layout):
    # Array methods rather than xp calls: host and device arrays both have
    # them, and they skip a dispatch layer on the hottest loop.
    permutation, matrix = layout
    if permutation is not None:
        tensor = tensor.transpose(permutation)
    return tensor.reshape(matrix)


def _batched_step(buffer: Dict, step: _BatchedStep, xp) -> None:
    """Run ``step`` on ``buffer``, replacing its operands by its result.

    Every slot is an operand of exactly one step, so the operands leave the
    buffer first: a batched operand is freed as soon as its matmul form
    exists, not after the product.
    """
    tensor_a, tensor_b = buffer.pop(step.slot_a), buffer.pop(step.slot_b)
    if step.layout is None:
        axes = (list(step.axes_a), list(step.axes_b)) if step.axes_a else 0
        if step.unbatched_a and step.unbatched_b:
            buffer[step.out] = xp.tensordot(tensor_a, tensor_b, axes)
            return
        rows = (tensor_b if step.unbatched_a else tensor_a).shape[0]
        buffer[step.out] = xp.stack([
            xp.tensordot(
                tensor_a if step.unbatched_a else tensor_a[row],
                tensor_b if step.unbatched_b else tensor_b[row],
                axes,
            )
            for row in range(rows)
        ])
        return
    layout_a, layout_b, out_shape = step.layout
    if layout_a is not None:
        tensor_a = _as_matrix(tensor_a, layout_a)
    if layout_b is not None:
        tensor_b = _as_matrix(tensor_b, layout_b)
    buffer[step.out] = xp.matmul(tensor_a, tensor_b).reshape(out_shape)


def _contract_step(
    tensor_a: np.ndarray,
    tensor_b: np.ndarray,
    axes_a: Tuple[int, ...],
    axes_b: Tuple[int, ...],
) -> np.ndarray:
    return np.tensordot(tensor_a, tensor_b, axes=(list(axes_a), list(axes_b)) if axes_a else 0)
