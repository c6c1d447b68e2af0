"""Shared fixtures: small rendered workloads reused across the suite.

Rendering is the slow part of any test, so rendered subimage sets are
cached per (dataset, P, image size, rotation) for the whole session.
All test workloads use shrunken volumes — the algorithms are scale-free.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np
import pytest

from repro.render.camera import Camera
from repro.render.raycast import render_subvolume
from repro.render.reference import composite_sequential
from repro.volume.datasets import make_dataset
from repro.volume.partition import depth_order, recursive_bisect

#: Default small volume used across the suite.
SMALL_SHAPE = (32, 32, 16)
#: Default small image side.
SMALL_IMAGE = 48


@lru_cache(maxsize=64)
def rendered_workload(
    dataset: str = "engine_low",
    num_ranks: int = 8,
    image_size: int = SMALL_IMAGE,
    rotation: tuple[float, float, float] = (20.0, 30.0, 0.0),
    volume_shape: tuple[int, int, int] = SMALL_SHAPE,
):
    """Render a small per-rank subimage set (cached for the session).

    Returns ``(subimages, plan, camera)``; treat the subimages as
    read-only — copy before mutating.
    """
    volume, transfer = make_dataset(dataset, volume_shape)
    camera = Camera(
        width=image_size,
        height=image_size,
        volume_shape=volume.shape,
        rot_x=rotation[0],
        rot_y=rotation[1],
        rot_z=rotation[2],
    )
    plan = recursive_bisect(volume.shape, num_ranks)
    subimages = tuple(
        render_subvolume(volume, transfer, camera, plan.extent(rank))
        for rank in range(num_ranks)
    )
    return subimages, plan, camera


@lru_cache(maxsize=64)
def reference_image(
    dataset: str = "engine_low",
    num_ranks: int = 8,
    image_size: int = SMALL_IMAGE,
    rotation: tuple[float, float, float] = (20.0, 30.0, 0.0),
    volume_shape: tuple[int, int, int] = SMALL_SHAPE,
):
    """Sequential depth-order composite of the cached workload."""
    subimages, plan, camera = rendered_workload(
        dataset, num_ranks, image_size, rotation, volume_shape
    )
    order = depth_order(plan, camera.view_dir)
    return composite_sequential(list(subimages), order)


@pytest.fixture
def small_workload():
    """(subimages, plan, camera) for the default small engine workload."""
    return rendered_workload()


@pytest.fixture
def small_reference():
    return reference_image()


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


def random_subimages(rng: np.random.Generator, num_ranks: int, height: int, width: int,
                     density: float = 0.3):
    """Random sparse subimage set (no renderer involved) for protocol tests."""
    from repro.render.image import SubImage

    images = []
    for _ in range(num_ranks):
        mask = rng.random((height, width)) < density
        opacity = np.where(mask, rng.uniform(0.05, 0.9, (height, width)), 0.0)
        intensity = np.where(mask, rng.uniform(0.05, 1.0, (height, width)) * opacity, 0.0)
        images.append(SubImage(intensity=intensity, opacity=opacity))
    return images


async def route_tiles(ctx, owners, outgoing, *, push_order=None):
    """One-shot tile routing over :class:`TileRouter`: push ``outgoing``
    tiles, collect owned ones.

    ``owners[t]`` names tile ``t``'s owner; ``outgoing`` maps the tile
    ids this rank contributes to (remote owners only) to ``(payload,
    nbytes)``.  Returns ``{tile_id: [payload per remote rank, ascending
    src]}`` for every tile this rank owns.  ``push_order`` permutes the
    order outgoing tiles are pushed (default: ascending tile id) — a
    callable mapping the sorted tile-id list to the order to send; on
    the simulator any permutation must give bit-identical results.
    """
    from repro.cluster.collectives import TileRouter
    from repro.errors import ConfigurationError

    owners = tuple(owners)
    router = TileRouter(ctx, owners)
    owned = [t for t, owner in enumerate(owners) if owner == ctx.rank]
    await router.post_receives(owned)
    order = sorted(outgoing)
    if push_order is not None:
        order = list(push_order(order))
        if sorted(order) != sorted(outgoing):
            raise ConfigurationError(
                "push_order must permute the outgoing tile ids, "
                f"got {order!r} for {sorted(outgoing)!r}"
            )
    for tile_id in order:
        payload, nbytes = outgoing[tile_id]
        await router.push(tile_id, payload, nbytes)
    received = {tile_id: await router.collect(tile_id) for tile_id in owned}
    await router.flush()
    return received
