"""Reusable contraction plans.

The greedy ordering heuristic decides which node pair to contract from tensor
*sizes* only, so two networks with the same topology and the same tensor
shapes contract in the same order regardless of the tensor values.  Both
users of plans exploit this: every trajectory of a fixed circuit produces the
same network topology (only the sampled Kraus tensor values change), and so
does every substituted term of Algorithm 1 (only the inserted SVD factors
change).  The ordering work and all node/edge bookkeeping are paid once.

:meth:`ContractionPlan.record` contracts a template network while recording
each pairwise step positionally (via the :attr:`TensorNetwork.observer`
hook); :meth:`ContractionPlan.execute` replays the recorded schedule over a
plain list of tensors as a flat sequence of ``tensordot`` calls.  It is the
slow per-evaluation oracle of the batched replay below.

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

Plans are recorded over whatever circuit the session hands the backend —
since the optimizing passes (:mod:`repro.circuits.passes`) run before plan
construction, a recorded schedule covers the *optimized* network (fewer
nodes after fusion/folding/pruning), and the plan-cache key is derived from
that circuit's fingerprint.
"""

from __future__ import annotations

from typing import List, Mapping, NamedTuple, Sequence, Tuple

from repro.tensornetwork.network import TensorNetwork
from repro.utils.validation import ValidationError
from repro.xp import declare_seam, get_namespace
from repro.xp import host as np

declare_seam(__name__, mode="dispatch")

__all__ = ["ContractionPlan", "SpecializedPlan"]

#: One replay step: positions of the two operands in the evolving tensor list
#: plus the contracted axes of each (empty axes = outer product).
_Step = Tuple[int, int, Tuple[int, ...], Tuple[int, ...]]

#: One slot-program step: input slots ``a``/``b``, their contracted axes, and
#: the output slot the result lands in (slots never move, unlike positions).
_SlotStep = Tuple[int, int, Tuple[int, ...], Tuple[int, ...], int]


class _BatchedStep(NamedTuple):
    """One residual step of a :class:`SpecializedPlan`, compiled for batches.

    ``layout`` is ``None`` for a per-row ``tensordot``, else the matmul
    recipe ``(layout_a, layout_b, out_shape)`` where an operand layout is
    ``(permutation or None, matrix shape)`` — ``None`` for a static operand,
    which is baked in matrix form.
    """

    slot_a: int
    slot_b: int
    axes_a: Tuple[int, ...]
    axes_b: Tuple[int, ...]
    out: int
    static_a: bool
    static_b: bool
    layout: tuple | None


class ContractionPlan:
    """A recorded pairwise contraction schedule, replayable on fresh tensors."""

    def __init__(
        self,
        steps: List[_Step],
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
    def record(cls, network: TensorNetwork, strategy: str = "greedy") -> Tuple["ContractionPlan", complex]:
        """Contract ``network`` to a scalar, recording the schedule.

        Returns ``(plan, value)`` where ``value`` is the template's own
        contraction result.  The network is consumed (contraction is
        destructive), so callers must snapshot node tensors beforehand if they
        want to replay with partially swapped values.
        """
        num_inputs = network.num_nodes
        steps: List[_Step] = []
        peak = [0]

        def observer(net: TensorNetwork, node_a, node_b) -> None:
            position_a = net.nodes.index(node_a)
            position_b = net.nodes.index(node_b)
            shared = []
            for edge in node_a.edges:
                if not edge.is_dangling and edge.other(node_a) is node_b and edge not in shared:
                    shared.append(edge)
            shared_dim = 1
            for edge in shared:
                shared_dim *= edge.dimension
            peak[0] = max(
                peak[0], (node_a.size // shared_dim) * (node_b.size // shared_dim)
            )
            steps.append(
                (
                    position_a,
                    position_b,
                    tuple(edge.axis_of(node_a) for edge in shared),
                    tuple(edge.axis_of(node_b) for edge in shared),
                )
            )

        network.observer = observer
        try:
            value = network.contract_to_scalar(strategy=strategy)
        finally:
            network.observer = None
        return cls(steps, num_inputs, peak_intermediate_entries=peak[0]), value

    # ------------------------------------------------------------------
    def execute(self, tensors: List[np.ndarray], xp=None) -> complex:
        """Replay the schedule over ``tensors`` and return the scalar result.

        ``tensors`` must match the template's node order and shapes; only the
        values may differ (device arrays of ``xp`` when a namespace is given).
        Mirrors ``contract_pair``'s list evolution (remove both operands,
        append the result) so the recorded positions stay valid.
        """
        if xp is None:
            xp = get_namespace("cpu")
        if len(tensors) != self.num_inputs:
            raise ValidationError(
                f"plan expects {self.num_inputs} tensors, got {len(tensors)}"
            )
        arrays = list(tensors)
        for position_a, position_b, axes_a, axes_b in self.steps:
            result = _contract_step(arrays[position_a], arrays[position_b], axes_a, axes_b, xp)
            for position in sorted((position_a, position_b), reverse=True):
                del arrays[position]
            arrays.append(result)
        if len(arrays) != 1 or arrays[0].size != 1:
            raise ValidationError("plan did not reduce the network to a scalar")
        return complex(xp.to_scalar(arrays[0]))

    # ------------------------------------------------------------------
    def _slot_program(self) -> List[_SlotStep]:
        """The positional steps re-expressed over stable slot indices.

        Simulates the evolving-list semantics of :meth:`execute` once, so
        step ``i``'s operands become fixed slots (inputs ``0..num_inputs-1``,
        intermediates ``num_inputs + i``) that partial evaluation can reason
        about without replaying list mutations.
        """
        slots = list(range(self.num_inputs))
        program: List[_SlotStep] = []
        for index, (position_a, position_b, axes_a, axes_b) in enumerate(self.steps):
            slot_a = slots[position_a]
            slot_b = slots[position_b]
            for position in sorted((position_a, position_b), reverse=True):
                del slots[position]
            out = self.num_inputs + index
            slots.append(out)
            program.append((slot_a, slot_b, axes_a, axes_b, out))
        return program

    def specialize(
        self,
        tensors: Sequence[np.ndarray],
        variable_positions: Sequence[int],
    ) -> "SpecializedPlan":
        """Partially evaluate the plan over every input *not* in ``variable_positions``.

        ``tensors`` supplies the static input values (entries at variable
        positions are ignored, only their shapes are used); the returned
        :class:`SpecializedPlan` accepts a batch of values for the variable
        positions per call and replays only the steps that depend on them.
        """
        if len(tensors) != self.num_inputs:
            raise ValidationError(
                f"plan expects {self.num_inputs} tensors, got {len(tensors)}"
            )
        variable = {int(position) for position in variable_positions}
        unknown = sorted(position for position in variable if not 0 <= position < self.num_inputs)
        if unknown:
            raise ValidationError(f"variable positions {unknown} out of range")
        program = self._slot_program()
        total = self.num_inputs + len(program)
        baked: List[np.ndarray | None] = [None] * total
        static = [True] * total
        shapes: List[Tuple[int, ...] | None] = [None] * total
        for position in range(self.num_inputs):
            shapes[position] = tuple(tensors[position].shape)
            if position in variable:
                static[position] = False
            else:
                baked[position] = tensors[position]
        residual: List[_SlotStep] = []
        for slot_a, slot_b, axes_a, axes_b, out in program:
            if static[slot_a] and static[slot_b]:
                baked[out] = _contract_step(baked[slot_a], baked[slot_b], axes_a, axes_b, None)
                shapes[out] = baked[out].shape
            else:
                static[out] = False
                residual.append((slot_a, slot_b, axes_a, axes_b, out))
        steps, peak_entries = _batched_steps(residual, shapes, static, baked)
        result_slot = total - 1 if program else 0
        return SpecializedPlan(baked, steps, sorted(variable), result_slot, peak_entries)


class SpecializedPlan:
    """A partially evaluated :class:`ContractionPlan` (see :meth:`ContractionPlan.specialize`).

    Static intermediates are baked in; :meth:`execute` substitutes a batch
    of values for the variable inputs and replays only the residual steps,
    once for the whole batch.  Row ``i`` of the result is bit-identical to a
    full :meth:`ContractionPlan.execute` replay with row ``i``'s inputs.
    """

    __slots__ = (
        "_baked", "_residual", "variable_positions", "_result_slot",
        "peak_row_entries", "_device_baked",
    )

    def __init__(
        self,
        baked: List[np.ndarray | None],
        residual: List[_BatchedStep],
        variable_positions: List[int],
        result_slot: int,
        peak_row_entries: int,
    ) -> None:
        self._baked = baked
        self._residual = residual
        self.variable_positions = variable_positions
        self._result_slot = result_slot
        #: Entry count of the largest per-row tensor a replay holds (variable
        #: inputs and residual intermediates); sizes the batch chunks.
        self.peak_row_entries = peak_row_entries
        #: Per-namespace device copies of the baked tensors, transferred once
        #: on the first device execute (only the small variable tensors move
        #: per call; see BatchedTrajectoryEngine._run_tn).
        self._device_baked: dict = {}

    def _baked_for(self, xp) -> List:
        if xp.device == "cpu":
            return self._baked
        cached = self._device_baked.get(xp.name)
        if cached is None:
            cached = [
                None if tensor is None else xp.asarray(tensor)
                for tensor in self._baked
            ]
            self._device_baked[xp.name] = cached
        return cached

    @property
    def num_residual_steps(self) -> int:
        """Contractions actually replayed per call (the rest are baked)."""
        return len(self._residual)

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
            buffer = list(baked)
            for position, stack in zip(self.variable_positions, stacks):
                buffer[position] = stack[start:stop]
            for step in self._residual:
                _batched_step(buffer, step, xp)
            result = buffer[self._result_slot]
            if result.size != stop - start:
                raise ValidationError("plan did not reduce the network to a scalar")
            amplitudes[start:stop] = xp.to_host(xp.reshape(result, (stop - start,)))
        return amplitudes


def _batched_steps(
    residual: List[_SlotStep],
    shapes: List[Tuple[int, ...] | None],
    static: List[bool],
    baked: List[np.ndarray | None],
) -> Tuple[List[_BatchedStep], int]:
    """Compile residual slot steps into batched steps; also the peak row size.

    ``shapes`` holds the per-row shape of every input and baked slot (filled
    in here for the residual outputs); ``static`` marks the unbatched slots.
    A step contracting at least two entries becomes one ``matmul`` on
    transposed and reshaped operands — per row, the same 2-D operands that
    ``tensordot`` hands to ``dot``, so each row rounds exactly as a per-row
    contraction does.  Outer products (nothing contracted) keep a
    ``tensordot`` per row: a batched ``matmul`` rounds them differently.
    A static operand of a ``matmul`` step is stored in ``baked`` already in
    matrix form (every slot is read by exactly one step).
    """
    peak = max(
        [_size(shape) for slot, shape in enumerate(shapes) if shape is not None and not static[slot]],
        default=1,
    )
    steps: List[_BatchedStep] = []
    for slot_a, slot_b, axes_a, axes_b, out in residual:
        shape_a, shape_b = shapes[slot_a], shapes[slot_b]
        free_a = [axis for axis in range(len(shape_a)) if axis not in axes_a]
        free_b = [axis for axis in range(len(shape_b)) if axis not in axes_b]
        shapes[out] = tuple(shape_a[axis] for axis in free_a) + tuple(
            shape_b[axis] for axis in free_b
        )
        peak = max(peak, _size(shapes[out]))
        contracted = _size(shape_a[axis] for axis in axes_a)
        layout = None
        if contracted >= 2:
            rows_a = _size(shape_a[axis] for axis in free_a)
            cols_b = _size(shape_b[axis] for axis in free_b)
            layouts = [
                _operand_layout(free_a + list(axes_a), (rows_a, contracted), static[slot_a]),
                _operand_layout(list(axes_b) + free_b, (contracted, cols_b), static[slot_b]),
            ]
            for index, slot in enumerate((slot_a, slot_b)):
                if static[slot]:
                    baked[slot] = _as_matrix(baked[slot], layouts[index])
                    layouts[index] = None
            layout = (layouts[0], layouts[1], (-1,) + shapes[out])
        steps.append(
            _BatchedStep(
                slot_a, slot_b, axes_a, axes_b, out,
                static[slot_a], static[slot_b], layout,
            )
        )
    return steps, peak


def _operand_layout(order: List[int], matrix: Tuple[int, int], is_static: bool):
    """``(permutation or None, shape)`` turning an operand into its matmul matrix.

    A batched operand keeps its leading batch axis in front.
    """
    if not is_static:
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


def _batched_step(buffer: List, step: _BatchedStep, xp) -> None:
    """Run ``step`` on ``buffer``, replacing its operands by its result.

    Every slot is an operand of exactly one step, so the operands leave the
    buffer first: a batched operand is freed as soon as its matmul form
    exists, not after the product.
    """
    tensor_a, tensor_b = buffer[step.slot_a], buffer[step.slot_b]
    buffer[step.slot_a] = buffer[step.slot_b] = None
    if step.layout is None:
        axes = (list(step.axes_a), list(step.axes_b)) if step.axes_a else 0
        rows = (tensor_b if step.static_a else tensor_a).shape[0]
        buffer[step.out] = xp.stack([
            xp.tensordot(
                tensor_a if step.static_a else tensor_a[row],
                tensor_b if step.static_b else tensor_b[row],
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
    xp=None,
) -> np.ndarray:
    axes = (list(axes_a), list(axes_b)) if axes_a else 0
    if xp is None:
        return np.tensordot(tensor_a, tensor_b, axes=axes)
    return xp.tensordot(tensor_a, tensor_b, axes=axes)
