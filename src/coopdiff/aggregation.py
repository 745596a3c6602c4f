"""Non-overlapping mask aggregation of agent states.

The aggregate Y has the same dimension d as every agent state; agent i
supplies the coordinates in its index set, and the index sets partition
{0, ..., d-1}. In matrix form Y = M vec(X) with a binary selection matrix
M whose rows are distinct unit vectors, so M M^T = I_d holds by
construction and is re-validated from the index sets exactly.

Masks are stored as index sets, with their (N, d) 0/1 indicator rows
precomputed; no dense M is built outside tests. The N agent states travel
as one (N, batch, d) array, so ``aggregate`` is one tape node: a multiply
by ``masks[:, None, :]`` and a sum over the agent axis. The aggregator has
no learnable parameters: training updates the control policies only.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import tape
from .tape import Node

Array = np.ndarray


@dataclass(frozen=True)
class MaskAggregator:
    """Selection masks for N agents over coordinate dimension d."""

    num_agents: int
    dim: int
    index_sets: tuple            # one sorted tuple of coordinates per agent
    image_hw: tuple | None = None
    seam_pairs: tuple = ()       # ((last row of upper stripe, first row of lower), ...)
    preset: str = "explicit"
    masks: Array = field(init=False, repr=False)

    def __post_init__(self):
        sets = tuple(tuple(sorted(int(i) for i in s)) for s in self.index_sets)
        object.__setattr__(self, "index_sets", sets)
        if len(sets) != self.num_agents:
            raise ValueError(
                f"got {len(sets)} index sets for {self.num_agents} agents"
            )
        seen = np.zeros(self.dim, dtype=np.int64)
        for s in sets:
            for idx in s:
                if not (0 <= idx < self.dim):
                    raise ValueError(f"coordinate {idx} outside [0, {self.dim})")
                seen[idx] += 1
        # exact partition check; equivalent to M M^T = I on the selection matrix
        if np.any(seen != 1):
            bad = np.nonzero(seen != 1)[0][:8].tolist()
            raise ValueError(
                f"index sets must partition the {self.dim} coordinates; "
                f"offending coordinates: {bad}"
            )
        masks = np.zeros((self.num_agents, self.dim))
        for i, s in enumerate(sets):
            masks[i, list(s)] = 1.0
        object.__setattr__(self, "masks", masks)


def aggregate(agg: MaskAggregator, states) -> Node:
    """Y with Y[j] copied from the agent whose index set contains j.

    ``states`` is an (N, batch, dim) node or array holding one slice per
    agent. Linear, so it is one node: a multiply by the masks and a sum
    over the agent axis, whose adjoint routes dY to agent i as
    dY * mask_i.
    """
    states = tape.as_node(states)
    shape = states.value.shape
    if len(shape) != 3 or shape[0] != agg.num_agents or shape[2] != agg.dim:
        raise ValueError(
            f"states of shape {shape} do not match "
            f"({agg.num_agents}, batch, {agg.dim})"
        )
    return tape.op((states.value * agg.masks[:, None, :]).sum(axis=0),
                   (states,), (lambda g: scatter_adjoint(agg, g),))


def scatter_adjoint(agg: MaskAggregator, grad_y) -> Array:
    """Transpose of ``aggregate``, its adjoint: route a (batch, dim) dY to
    each agent's own coordinates, giving (N, batch, dim)."""
    grad_y = np.asarray(grad_y, dtype=np.float64)
    if grad_y.shape[-1] != agg.dim:
        raise ValueError(
            f"gradient has dimension {grad_y.shape[-1]}, expected {agg.dim}"
        )
    return grad_y * agg.masks[:, None, :]


# ---------------------------------------------------------------------------
# presets
# ---------------------------------------------------------------------------

def _balanced_split(n_items: int, n_groups: int) -> list[np.ndarray]:
    # first (n_items mod n_groups) groups get the extra item, as in
    # numpy.array_split: 16 rows over 3 agents -> heights 6, 5, 5
    return np.array_split(np.arange(n_items), n_groups)


def make_mask(
    preset: str,
    num_agents: int,
    dim: int,
    image_hw: tuple | None = None,
    index_sets=None,
) -> MaskAggregator:
    """Build a named mask layout.

    Presets: "identity" (single agent), "halves" (contiguous split of the
    flat coordinates), "h-stripes" / "v-stripes" (row / column bands of an
    image, which requires ``image_hw``), "explicit" (caller-supplied
    ``index_sets``). Horizontal stripes also derive the seam row pairs used
    by the seam-continuity loss.
    """
    if num_agents < 1:
        raise ValueError("need at least one agent")
    if preset == "identity":
        if num_agents != 1:
            raise ValueError("identity mask is for a single agent")
        return MaskAggregator(1, dim, (tuple(range(dim)),), image_hw, (), preset)
    if preset == "halves":
        groups = _balanced_split(dim, num_agents)
        return MaskAggregator(
            num_agents, dim, tuple(tuple(g) for g in groups), image_hw, (), preset
        )
    if preset in ("h-stripes", "v-stripes"):
        if image_hw is None:
            raise ValueError(f"preset {preset!r} needs image_hw")
        h, w = image_hw
        if h * w != dim:
            raise ValueError(f"image {h}x{w} does not match dimension {dim}")
        if preset == "h-stripes":
            bands = _balanced_split(h, num_agents)
            sets = tuple(
                tuple(int(r) * w + c for r in band for c in range(w))
                for band in bands
            )
            seams = tuple(
                (int(bands[i][-1]), int(bands[i + 1][0]))
                for i in range(len(bands) - 1)
            )
            return MaskAggregator(num_agents, dim, sets, image_hw, seams, preset)
        bands = _balanced_split(w, num_agents)
        sets = tuple(
            tuple(r * w + int(c) for c in band for r in range(h))
            for band in bands
        )
        return MaskAggregator(num_agents, dim, sets, image_hw, (), preset)
    if preset == "explicit":
        if index_sets is None:
            raise ValueError("explicit masks need index_sets")
        return MaskAggregator(
            num_agents, dim, tuple(tuple(s) for s in index_sets), image_hw, (), preset
        )
    raise ValueError(
        f"unknown mask preset {preset!r}; expected identity, halves, "
        "h-stripes, v-stripes or explicit"
    )
