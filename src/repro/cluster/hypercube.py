"""Hypercube bit helpers shared by every swap-structured schedule.

Binary swap pairs ranks hypercube-style: at stage ``k`` (0-based) of
``log2 P`` stages, rank ``r`` exchanges with ``r XOR 2**k``.  With the
volume partitioned by recursive bisection in the *same* bit order (rank
bit ``k`` selects the half of the ``k``-th split, counting from the last
split), the pair at stage ``k`` always holds the two halves of one
bisection node, so a single plane separates their data and the over
operation's front/back order is well defined (Ma et al. 1994).

(The *network* topology plane — flat, fat-tree, torus, dragonfly — is
:mod:`repro.cluster.model`.)
"""

from __future__ import annotations

from ..errors import ConfigurationError

__all__ = ["is_power_of_two", "log2_int", "keeps_low_half"]


def is_power_of_two(n: int) -> bool:
    """True iff ``n`` is a positive power of two."""
    return n >= 1 and (n & (n - 1)) == 0


def log2_int(n: int) -> int:
    """Exact integer log2; raises for non-powers-of-two."""
    if not is_power_of_two(n):
        raise ConfigurationError(f"{n} is not a positive power of two")
    return n.bit_length() - 1


def keeps_low_half(rank: int, stage: int) -> bool:
    """Whether ``rank`` keeps the first (low-coordinate) half at ``stage``.

    Convention: the pair member with the *zero* bit at position ``stage``
    keeps the first half of the current image region and sends the second;
    its partner does the opposite.  This makes the final ownership map a
    bit-reversal-style interleaving identical for every method.
    """
    return (rank >> stage) & 1 == 0
