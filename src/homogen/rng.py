"""Random draws shared by the samplers of both domains."""

from __future__ import annotations

from collections.abc import Callable


def randbelow(getrandbits: Callable[[int], int], n: int) -> int:
    """``rng.randrange(n)`` for n >= 1, drawing the same bits in the same order
    as ``random.Random._randbelow``, which ``randrange`` and ``randint`` use:
    ``n.bit_length()`` bits, redrawn while >= n. A hot loop with a fixed bound
    may inline that draw instead (the calc samplers draw digits and operators
    so); bounds that vary come here."""
    k = n.bit_length()
    r = getrandbits(k)
    while r >= n:
        r = getrandbits(k)
    return r
