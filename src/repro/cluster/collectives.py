"""Collective operations built on the point-to-point substrate.

Only what the sort-last pipeline needs: a ``gather`` of final image tiles
to a root (the display node), the grouped pairwise exchange of radix-k
stages, and the tag-routed tile pump of the tile-routed compositor.  All
are implemented with explicit p2p messages so that their traffic is
visible to the same accounting that measures the compositing phase.
"""

from __future__ import annotations

from typing import Any, Optional

from ..errors import ConfigurationError
from .context import RankContext

__all__ = ["gather", "exchange_grouped", "TileRouter"]

#: Tag space reserved for collectives so they never collide with
#: compositing-stage tags (which are small non-negative stage indices).
_GATHER_TAG = 1 << 20
#: Base of the per-tile tag space used by :class:`TileRouter`; tile ``t``
#: travels under tag ``_TILE_TAG + t``, above every other reserved range.
_TILE_TAG = 1 << 23


class TileRouter:
    """Tag-routed asynchronous tile pump over the isend/irecv surface.

    Each tile travels under its own tag (``_TILE_TAG + tile_id``), so an
    owner can complete any one tile independently of every other message
    in flight — there is no stage structure and no barrier anywhere.

    Ordering contract (what keeps the strictly-FIFO multiprocessing
    channels happy): senders :meth:`push` tiles in ascending tile id and
    owners :meth:`collect` their owned tiles in ascending tile id, so
    the per-``(src, dst)`` message order matches the per-channel wait
    order on every substrate.  The simulator needs no such care — its
    matcher pairs nonblocking ops by exact tag.
    """

    def __init__(self, ctx, owners) -> None:
        self._ctx = ctx
        self._owners = tuple(owners)
        self._inflight: dict[int, list] = {}
        self._sends: list = []

    async def post_receives(self, owned: "list[int]") -> None:
        """Post one irecv per (owned tile, remote rank) pair."""
        ctx = self._ctx
        for tile_id in owned:
            requests = []
            for src in range(ctx.size):
                if src == ctx.rank:
                    continue
                requests.append(await ctx.irecv(src, tag=_TILE_TAG + tile_id))
            self._inflight[tile_id] = requests

    async def push(self, tile_id: int, payload: Any, nbytes: int) -> None:
        """Send this rank's contribution for ``tile_id`` to its owner."""
        owner = self._owners[tile_id]
        if owner == self._ctx.rank:
            raise ConfigurationError(
                f"rank {owner} owns tile {tile_id}; local contributions "
                "never travel through the router"
            )
        self._sends.append(
            await self._ctx.isend(
                owner, payload, nbytes=nbytes, tag=_TILE_TAG + tile_id
            )
        )

    async def collect(self, tile_id: int) -> list:
        """Wait for ``tile_id``'s remote contributions (ascending src)."""
        requests = self._inflight.pop(tile_id)
        return await self._ctx.wait_all(requests)

    async def flush(self) -> None:
        """Complete every outstanding send (drains send buffers)."""
        sends, self._sends = self._sends, []
        await self._ctx.wait_all(sends)


async def exchange_grouped(
    ctx: RankContext,
    sends: "list[tuple[int, Any, int]]",
    *,
    tag: int = 0,
) -> list[Any]:
    """Grouped k-ary exchange: pairwise full-duplex rounds, in order.

    ``sends`` is a sequence of ``(peer, payload, nbytes)``; each entry is
    one ``sendrecv`` with that peer, and the replies come back in the
    same order.  A single entry is exactly the binary-swap partner
    exchange; ``k - 1`` entries following a radix-k XOR round schedule
    (round ``t`` pairs member ``m`` with ``m ^ t``) realize one grouped
    stage.  The caller must arrange that every round is a perfect
    matching across the group — i.e. if ``a``'s ``t``-th entry targets
    ``b`` then ``b``'s ``t``-th entry targets ``a`` — or the blocking
    rounds deadlock.
    """
    replies: list[Any] = []
    for peer, payload, nbytes in sends:
        replies.append(await ctx.sendrecv(peer, payload, nbytes=nbytes, tag=tag))
    return replies


async def gather(
    ctx: RankContext,
    payload: Any,
    *,
    root: int = 0,
    nbytes: Optional[int] = None,
) -> Optional[list[Any]]:
    """Gather one payload per rank to ``root``.

    Returns the rank-ordered list at the root and ``None`` elsewhere.
    ``P-1`` serialized receives at the root: the paper's assumption that
    the final image is simply collected after compositing, and the
    accounting every pinned counter was recorded against.
    """
    if not (0 <= root < ctx.size):
        raise ConfigurationError(f"gather root {root} out of range")
    if ctx.rank == root:
        out: list[Any] = [None] * ctx.size
        out[root] = payload
        for src in range(ctx.size):
            if src == root:
                continue
            out[src] = await ctx.recv(src, tag=_GATHER_TAG)
        return out
    await ctx.send(root, payload, nbytes=nbytes, tag=_GATHER_TAG)
    return None
