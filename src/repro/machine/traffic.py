"""Analytical cache-traffic model for lowered loop nests.

Classic footprint-based reuse analysis (as used in the Tiramisu and
Halide cost models): for each cache level, find the outermost loop depth
whose *block* — one complete execution of all loops at that depth and
inward — has a total data footprint that fits in the cache.  Data is then
reused inside the block, and the traffic an operand induces from the
level above equals its per-block footprint times the number of block
executions that actually change the data it touches (outer loops that do
not index the operand reuse the cached block for free).

Footprints are counted at cache-line granularity, so a column walk
through a row-major tensor pays a full line per element — which is
exactly the locality signal tiling and interchange exist to fix.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ..transforms.loop_nest import Access, LoweredNest, coverage_per_dim
from .spec import MachineSpec

#: Fraction of a cache's capacity the model lets a working set use
#: (conflict misses, other residents).
_CACHE_UTILIZATION = 0.8


def access_lines(
    access: Access, cover: list[int], line_bytes: int
) -> int:
    """Cache lines touched by ``access`` over a block covering ``cover``.

    The rectangle footprint per tensor dimension; the last (fastest
    varying) dimension is line-contiguous, every other dimension pays a
    line per distinct index in the worst case (true for row-major layouts
    whenever the trailing span doesn't cover whole lines — a conservative
    but monotone approximation).
    """
    shape = access.tensor_shape
    spans: list[int] = []
    for terms, extent in zip(access.row_terms, shape):
        span = 1
        for dim, coeff in terms:
            span += coeff * (cover[dim] - 1)
        spans.append(span if span < extent else extent)
    if not spans:
        return 1
    # Trailing dimensions whose span covers the whole extent are
    # contiguous with their predecessor in a row-major layout: fold them
    # into one contiguous run, then charge a line per residual outer index.
    contiguous = spans[-1]
    index = len(spans) - 2
    if spans[-1] == shape[-1]:
        while index >= 0 and spans[index] == shape[index]:
            contiguous *= spans[index]
            index -= 1
    outer = 1
    for position in range(index + 1):
        outer *= spans[position]
    run_lines = math.ceil(contiguous * access.element_bytes / line_bytes)
    return outer * run_lines


class _Footprints:
    """Per-access line counts of one nest's blocks, filled lazily by depth.

    The block at a depth covers the same points whatever the cache level,
    and ``line_bytes`` is spec-wide, so every level of one
    :func:`nest_traffic` call reads the same rows.
    """

    def __init__(self, nest: LoweredNest, line_bytes: int) -> None:
        self.nest = nest
        self.line_bytes = line_bytes
        self.num_dims = 1 + max(
            (loop.dim for loop in nest.loops), default=0
        )
        self._lines: dict[int, list[int]] = {}

    def lines(self, depth: int) -> list[int]:
        """Lines each access touches in one execution of the block."""
        row = self._lines.get(depth)
        if row is None:
            cover = coverage_per_dim(self.nest.loops, depth, self.num_dims)
            row = [
                access_lines(access, cover, self.line_bytes)
                for access in self.nest.accesses
            ]
            self._lines[depth] = row
        return row

    def block_bytes(self, depth: int) -> int:
        """Total line-granular footprint of the block at ``depth``."""
        return sum(self.lines(depth)) * self.line_bytes

    def reuse_depth(self, capacity: float) -> int:
        """Outermost depth whose block footprint fits in ``capacity``."""
        for depth in range(len(self.nest.loops) + 1):
            if self.block_bytes(depth) <= capacity:
                return depth
        return len(self.nest.loops)


def block_footprint_bytes(
    nest: LoweredNest, depth: int, line_bytes: int
) -> int:
    """Total line-granular footprint of the block at ``depth``."""
    return _Footprints(nest, line_bytes).block_bytes(depth)


@dataclass
class TrafficReport:
    """Bytes moved into each cache level over the nest's execution."""

    bytes_per_level: dict[str, float]
    reuse_depths: dict[str, int]

    def into(self, level_name: str) -> float:
        return self.bytes_per_level.get(level_name, 0.0)


def nest_traffic(
    nest: LoweredNest,
    spec: MachineSpec,
    skip_tensor_ids: frozenset[int] = frozenset(),
) -> TrafficReport:
    """Traffic into each cache level for one nest execution.

    ``skip_tensor_ids`` removes accesses whose data is guaranteed
    cache-resident (fused intermediates) from the DRAM/L3 traffic.
    """
    footprints = _Footprints(nest, spec.line_bytes)
    last_level = spec.caches[-1].name
    bytes_per_level: dict[str, float] = {}
    reuse_depths: dict[str, int] = {}
    for level in spec.caches:
        capacity = level.capacity * _CACHE_UTILIZATION
        depth = footprints.reuse_depth(capacity)
        reuse_depths[level.name] = depth
        outer_loops = nest.loops[:depth]
        total = 0.0
        for access, lines in zip(nest.accesses, footprints.lines(depth)):
            if (
                access.tensor_id in skip_tensor_ids
                and level.name == last_level
            ):
                continue
            executions = 1
            used = access.dims_used()
            for loop in outer_loops:
                if loop.dim in used:
                    executions *= loop.trip
            weight = 2.0 if access.is_write else 1.0
            total += executions * lines * spec.line_bytes * weight
        bytes_per_level[level.name] = total
    return TrafficReport(bytes_per_level, reuse_depths)


def dram_traffic_bytes(
    nest: LoweredNest,
    spec: MachineSpec,
    skip_tensor_ids: frozenset[int] = frozenset(),
) -> float:
    """Traffic between DRAM and the last-level cache."""
    report = nest_traffic(nest, spec, skip_tensor_ids)
    return report.into(spec.caches[-1].name)


def compulsory_bytes(nest: LoweredNest) -> int:
    """Lower bound: every distinct tensor moved once."""
    seen: set[int] = set()
    total = 0
    for access in nest.accesses:
        if access.tensor_id in seen:
            continue
        seen.add(access.tensor_id)
        total += access.tensor_bytes
    return total
