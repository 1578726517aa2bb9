"""Per-layer FLOP / byte / memory accounting and dynamism-aware timing.

A model is a list of :class:`LayerSpec` (static architecture facts).
At training step *k* each layer also carries a :class:`LayerState`
(dynamism multipliers).  :class:`ModelCost` turns (spec, state, GPU)
into forward/backward seconds and resident bytes — the exact inputs
DynMo's profiler hands to the balancers in the paper.

FLOP accounting for one transformer block on a micro-batch of ``b``
sequences of ``s`` tokens with hidden ``h`` and expansion ``x``
(multiply-accumulate counted as 2 FLOPs):

- QKV + output projections:   4 matmuls -> 8 b s h^2
- attention scores + values:  2 b s^2 h (quadratic term; scaled by the
  attention density under dynamic sparse attention)
- FFN:                        2 matmuls -> 4 b s h^2 x
  (MoE: per selected expert; scaled by routing multiplier)

Backward ≈ dX (same as forward matmuls) + dW (same again); the
attention quadratic term costs ~2x forward in backward.  Frozen layers
drop the dW term and, when no earlier layer needs gradients, the whole
backward.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.model.config import GPTConfig
from repro.sparse.kernels import (
    best_kernel_time,
    cusparse_cost_model,
    dense_cost_model,
    sputnik_cost_model,
)
from repro.utils.validation import check_prob

#: Training-precision regimes for memory accounting.  "mixed" is the
#: legacy default: bf16/fp16 working weights + fp32 master copy, fp32
#: gradients and optimizer states, half-precision activations.  "full"
#: trains in fp32 throughout: 4-byte weights with *no* separate master
#: copy, fp32 gradients/optimizer, 4-byte-per-element activations.
#: Precision is a *memory* knob only — compute time is calibrated via
#: ``peak_flops``/``efficiency`` and never depends on it, so default
#: and full-precision runs are bit-identical in simulated time.
PRECISIONS = ("mixed", "full")


# LayerSpec and LayerState use slots: pickling an instance with a
# __dict__ (as the trajectory memo's key does) turns CPython 3.11+'s
# inline attributes into a real dict and slows every later read of it


@dataclass(frozen=True, slots=True)
class LayerSpec:
    """Static facts about one pipeline-assignable layer."""

    index: int
    name: str
    kind: str  # "embedding" | "block" | "head"
    param_count: int
    matmul_flops: float  # weight-matmul forward FLOPs (per micro-batch)
    attn_quad_flops: float  # attention quadratic forward FLOPs
    ffn_flops: float  # portion of matmul_flops that is the FFN (MoE-scalable)
    activation_bytes: int  # output activation size per micro-batch
    is_moe: bool = False
    num_experts: int = 0

    def __post_init__(self) -> None:
        if self.ffn_flops > self.matmul_flops + 1e-6:
            raise ValueError("ffn_flops cannot exceed matmul_flops")


@dataclass(slots=True)
class LayerState:
    """Time-varying dynamism multipliers for one layer.

    sparsity: fraction of pruned weights in [0, 1].
    frozen: layer excluded from weight updates.
    droppable_bwd: True when the whole backward can be skipped
        (all earlier layers frozen too — Egeria semantics).
    attn_density: fraction of attention entries computed (dyn. sparse attn).
    token_fraction: fraction of tokens still alive at this layer
        (early exit / MoD routing).
    moe_multiplier: slowest-expert inflation factor for the FFN
        (max_e tokens_e / (total/E)); 1.0 means perfectly balanced.
    """

    sparsity: float = 0.0
    frozen: bool = False
    droppable_bwd: bool = False
    attn_density: float = 1.0
    token_fraction: float = 1.0
    moe_multiplier: float = 1.0

    def validate(self) -> None:
        check_prob("sparsity", self.sparsity)
        check_prob("attn_density", self.attn_density)
        check_prob("token_fraction", self.token_fraction)
        if self.moe_multiplier < 0:
            raise ValueError("moe_multiplier must be >= 0")

    def copy(self) -> "LayerState":
        # a direct call is ~4x cheaper than dataclasses.replace, and the
        # walk-ahead snapshots copy every layer of every cache miss
        return LayerState(
            self.sparsity,
            self.frozen,
            self.droppable_bwd,
            self.attn_density,
            self.token_fraction,
            self.moe_multiplier,
        )


def build_layer_specs(
    cfg: GPTConfig, micro_batch: int = 2, tp_ways: int = 8
) -> list[LayerSpec]:
    """Expand a config into pipeline-assignable layers.

    Layout mirrors Megatron: [embedding, block_0 .. block_{L-1}, head].
    FLOPs are per micro-batch (the scheduling unit of the pipeline).
    ``tp_ways`` shards the vocabulary embedding and LM head the way
    Megatron's vocab-parallel layers do; block FLOPs are left unsharded
    (uniform tensor-parallel scaling does not change stage balance).
    """
    if tp_ways <= 0:
        raise ValueError("tp_ways must be positive")
    b, s, h, x = micro_batch, cfg.seq_len, cfg.hidden, cfg.mlp_expansion
    act_bytes = b * s * h * cfg.dtype_bytes
    specs: list[LayerSpec] = []

    emb_params = (cfg.vocab_size * h) // tp_ways + cfg.seq_len * h
    specs.append(
        LayerSpec(
            index=0,
            name="embedding",
            kind="embedding",
            param_count=emb_params,
            matmul_flops=0.0,
            attn_quad_flops=0.0,
            ffn_flops=0.0,
            activation_bytes=act_bytes,
        )
    )

    moe_layers = set(cfg.moe_layers())
    for i in range(cfg.num_layers):
        attn_proj = 8.0 * b * s * h * h
        attn_quad = 2.0 * 2.0 * b * s * s * h  # scores + values
        is_moe = i in moe_layers
        if is_moe:
            # top-k experts run per token
            ffn = 4.0 * b * s * h * h * x * cfg.moe_top_k
            ffn_params = 2 * h * h * x * cfg.num_experts + h * cfg.num_experts
        else:
            ffn = 4.0 * b * s * h * h * x
            ffn_params = 2 * h * h * x
        params = 4 * h * h + ffn_params + 4 * h  # projections + FFN + LN
        specs.append(
            LayerSpec(
                index=i + 1,
                name=f"block{i}",
                kind="block",
                param_count=params,
                matmul_flops=attn_proj + ffn,
                attn_quad_flops=attn_quad,
                ffn_flops=ffn,
                activation_bytes=act_bytes,
                is_moe=is_moe,
                num_experts=cfg.num_experts if is_moe else 0,
            )
        )

    head_flops = 2.0 * b * s * h * cfg.vocab_size / tp_ways
    specs.append(
        LayerSpec(
            index=cfg.num_layers + 1,
            name="head",
            kind="head",
            param_count=(cfg.vocab_size * h) // tp_ways + 2 * h,
            matmul_flops=head_flops,
            attn_quad_flops=0.0,
            ffn_flops=0.0,
            activation_bytes=b * s * cfg.vocab_size * cfg.dtype_bytes,
        )
    )
    return specs


class ModelCost:
    """Turns (LayerSpec, LayerState, GPU peak FLOPs) into seconds/bytes."""

    def __init__(
        self,
        specs: list[LayerSpec],
        peak_flops: float = 989e12,
        efficiency: float = 0.45,
        optimizer_states_per_param: int = 2,  # Adam: m and v
        dtype_bytes: int = 2,
        master_weight_bytes: int = 4,
        activation_checkpointing: bool = False,
        precision: str = "mixed",
        activation_recompute: bool | None = None,
    ) -> None:
        """``activation_checkpointing`` trades memory for compute the
        Megatron way: activations are not kept across the pipeline
        (only one micro-batch's worth per layer), and backward first
        recomputes the forward (backward time += forward time).
        ``activation_recompute`` is the sweep-facing alias for the same
        knob (it wins when both are given).  ``precision`` selects the
        byte accounting regime (:data:`PRECISIONS`) consumed by
        :class:`~repro.model.memory.StageMemoryModel`; the byte methods
        on this class implement the legacy "mixed" accounting and are
        unaffected, as is all timing."""
        if not specs:
            raise ValueError("specs must be non-empty")
        if precision not in PRECISIONS:
            raise ValueError(
                f"unknown precision {precision!r}; choose from {PRECISIONS}"
            )
        if activation_recompute is not None:
            activation_checkpointing = bool(activation_recompute)
        self.specs = specs
        self.peak_flops = peak_flops
        self.efficiency = efficiency
        self.opt_states = optimizer_states_per_param
        self.dtype_bytes = dtype_bytes
        self.master_bytes = master_weight_bytes
        self.activation_checkpointing = activation_checkpointing
        self.precision = precision

    @property
    def activation_recompute(self) -> bool:
        """Alias of ``activation_checkpointing`` (the sweep-axis name)."""
        return self.activation_checkpointing

    # -- time ------------------------------------------------------------
    def _matmul_time(self, flops: float, sparsity: float) -> float:
        """Weight-matmul time with the sparse-kernel crossover applied."""
        if flops <= 0:
            return 0.0
        if sparsity <= 0.0:
            return flops / (self.peak_flops * self.efficiency)
        return best_kernel_time(flops, sparsity, self.peak_flops * self.efficiency / 0.62)

    def forward_time(self, spec: LayerSpec, state: LayerState) -> float:
        state.validate()
        ffn = spec.ffn_flops * state.moe_multiplier
        dense_part = spec.matmul_flops - spec.ffn_flops
        t = self._matmul_time(dense_part, state.sparsity)
        t += self._matmul_time(ffn, state.sparsity)
        t += (spec.attn_quad_flops * state.attn_density) / (
            self.peak_flops * self.efficiency
        )
        return t * state.token_fraction

    def backward_time(self, spec: LayerSpec, state: LayerState) -> float:
        """dX + dW (unless frozen) + 2x attention quadratic."""
        state.validate()
        if state.droppable_bwd:
            return 0.0
        fwd_matmul = self._matmul_time(
            spec.matmul_flops - spec.ffn_flops, state.sparsity
        ) + self._matmul_time(spec.ffn_flops * state.moe_multiplier, state.sparsity)
        dx = fwd_matmul
        dw = 0.0 if state.frozen else fwd_matmul
        quad = (
            2.0
            * (spec.attn_quad_flops * state.attn_density)
            / (self.peak_flops * self.efficiency)
        )
        total = (dx + dw + quad) * state.token_fraction
        if self.activation_checkpointing:
            total += self.forward_time(spec, state)  # recompute pass
        return total

    def backward_input_time(self, spec: LayerSpec, state: LayerState) -> float:
        """Only the activation-gradient half of backward (zero-bubble 'B' op)."""
        full = self.backward_time(spec, state)
        if full == 0.0:
            return 0.0
        dw = self.weight_grad_time(spec, state)
        return full - dw

    def weight_grad_time(self, spec: LayerSpec, state: LayerState) -> float:
        """The dW half of backward (zero-bubble 'W' op)."""
        if state.droppable_bwd or state.frozen:
            return 0.0
        fwd_matmul = self._matmul_time(
            spec.matmul_flops - spec.ffn_flops, state.sparsity
        ) + self._matmul_time(spec.ffn_flops * state.moe_multiplier, state.sparsity)
        return fwd_matmul * state.token_fraction

    # -- batched time tables ------------------------------------------------
    def _spec_columns(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(matmul-FFN dense part, FFN, attention-quad) FLOPs per layer."""
        cols = getattr(self, "_spec_cols", None)
        if cols is None:
            matmul = np.array([sp.matmul_flops for sp in self.specs])
            ffn = np.array([sp.ffn_flops for sp in self.specs])
            quad = np.array([sp.attn_quad_flops for sp in self.specs])
            cols = (matmul - ffn, ffn, quad)
            self._spec_cols = cols
        return cols

    def _matmul_time_vec(self, flops: np.ndarray, sparsity: np.ndarray) -> np.ndarray:
        """Elementwise :meth:`_matmul_time`: same formulas, same branch
        outcomes, same float64 operations per element."""
        pk = self.peak_flops * self.efficiency
        dense = flops / pk
        # best_kernel_time(flops, sparsity, pk / 0.62) candidates, with
        # each model's constants read off the scalar cost models so the
        # two paths can never drift apart
        spk = pk / 0.62
        dm, sm, cm = dense_cost_model(spk), sputnik_cost_model(spk), cusparse_cost_model(spk)
        best = dm.overhead_s + flops * (1.0 - 0.0) / (spk * (dm.base_efficiency / (1.0 + dm.irregularity * 0.0)))
        for m in (sm, cm):
            eff = m.base_efficiency / (1.0 + m.irregularity * sparsity)
            cand = m.overhead_s + flops * (1.0 - sparsity) / (spk * eff)
            best = np.minimum(best, cand)
        return np.where(flops <= 0, 0.0, np.where(sparsity <= 0.0, dense, best))

    def batched_layer_times(
        self, states_list: list[list[LayerState]], split: bool
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Per-layer (fwd, bwd, wgt, token_fraction) for N state vectors.

        Returns ``(N, L)`` float64 matrices whose rows are bit-identical
        to calling :meth:`forward_time` / :meth:`backward_time` (or the
        B/W split pair when ``split``) layer by layer: the vectorized
        expressions perform the same float64 operations in the same
        order per element.  ``wgt`` is zeros when not ``split`` (the
        scalar path never computes it there).
        """
        L = len(self.specs)
        for states in states_list:
            self._check_states(states)
        sp = np.array([[st.sparsity for st in states] for states in states_list])
        fz = np.array([[st.frozen for st in states] for states in states_list])
        dr = np.array([[st.droppable_bwd for st in states] for states in states_list])
        ad = np.array([[st.attn_density for st in states] for states in states_list])
        tf = np.array([[st.token_fraction for st in states] for states in states_list])
        mm = np.array([[st.moe_multiplier for st in states] for states in states_list])
        for name, mat in (("sparsity", sp), ("attn_density", ad), ("token_fraction", tf)):
            if ((mat < 0) | (mat > 1)).any():
                raise ValueError(f"{name} must be a probability in [0, 1]")
        if (mm < 0).any():
            raise ValueError("moe_multiplier must be >= 0")

        dense_part, ffn_spec, quad_spec = self._spec_columns()
        pk = self.peak_flops * self.efficiency
        ffn = ffn_spec * mm
        mt_dense = self._matmul_time_vec(np.broadcast_to(dense_part, sp.shape), sp)
        mt_ffn = self._matmul_time_vec(ffn, sp)
        quad_scaled = quad_spec * ad

        fwd = mt_dense + mt_ffn
        fwd = fwd + quad_scaled / pk
        fwd = fwd * tf

        fwd_matmul = mt_dense + mt_ffn
        dw = np.where(fz, 0.0, fwd_matmul)
        bwd_full = (fwd_matmul + dw) + (2.0 * quad_scaled) / pk
        bwd_full = bwd_full * tf
        if self.activation_checkpointing:
            bwd_full = bwd_full + fwd
        bwd_full = np.where(dr, 0.0, bwd_full)

        if split:
            wgt = np.where(dr | fz, 0.0, fwd_matmul * tf)
            bwd = np.where(bwd_full == 0.0, 0.0, bwd_full - wgt)
        else:
            wgt = np.zeros((len(states_list), L))
            bwd = bwd_full
        return fwd, bwd, wgt, tf

    # -- memory -----------------------------------------------------------
    def param_bytes(self, spec: LayerSpec, state: LayerState) -> int:
        """Weights (+ master copy) with CSR overhead when pruned."""
        active = spec.param_count * (1.0 - state.sparsity)
        if state.sparsity > 0:
            # CSR: values + column index per nnz (4B index)
            weight = active * (self.dtype_bytes + 4)
        else:
            weight = spec.param_count * self.dtype_bytes
        master = active * self.master_bytes
        return int(weight + master)

    def grad_bytes(self, spec: LayerSpec, state: LayerState) -> int:
        if state.frozen:
            return 0
        active = spec.param_count * (1.0 - state.sparsity)
        return int(active * self.master_bytes)

    def optimizer_bytes(self, spec: LayerSpec, state: LayerState) -> int:
        if state.frozen:
            return 0
        active = spec.param_count * (1.0 - state.sparsity)
        return int(active * self.master_bytes * self.opt_states)

    def activation_bytes(self, spec: LayerSpec, state: LayerState, in_flight: int) -> int:
        if self.activation_checkpointing:
            in_flight = 1  # only the boundary activation is retained
        return int(spec.activation_bytes * state.token_fraction * max(1, in_flight))

    def layer_memory(self, spec: LayerSpec, state: LayerState, in_flight: int = 1) -> int:
        return (
            self.param_bytes(spec, state)
            + self.grad_bytes(spec, state)
            + self.optimizer_bytes(spec, state)
            + self.activation_bytes(spec, state, in_flight)
        )

    # -- aggregates ---------------------------------------------------------
    def total_forward_time(self, states: list[LayerState]) -> float:
        self._check_states(states)
        return sum(self.forward_time(sp, st) for sp, st in zip(self.specs, states))

    def total_backward_time(self, states: list[LayerState]) -> float:
        self._check_states(states)
        return sum(self.backward_time(sp, st) for sp, st in zip(self.specs, states))

    def _check_states(self, states: list[LayerState]) -> None:
        if len(states) != len(self.specs):
            raise ValueError(
                f"got {len(states)} states for {len(self.specs)} layer specs"
            )


def fresh_states(n: int) -> list[LayerState]:
    """A dense, unfrozen, fully-routed state vector for n layers."""
    return [LayerState() for _ in range(n)]
