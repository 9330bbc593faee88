"""Exact scalar draws from a PCG64 generator without numpy's per-call cost.

A scalar `Generator.random()` costs about 1 µs and a scalar
`Generator.integers(n)` about 3 µs, almost all of it call overhead; the
explorers make hundreds of thousands of them. `Draws` fetches the generator's
raw 64-bit words in blocks with `bit_generator.random_raw` and computes, in
Python integers, exactly what numpy computes from them (PCG64, O'Neill 2014;
numpy's `next_double`, `next_uint32` and bounded integers after Lemire 2019):

- `random()` is `(w >> 11) * 2**-53` of the next word;
- a 32-bit draw is the low half of a fresh word, whose high half is kept for
  the next 32-bit draw (PCG64's `has_uint32` buffer); `random()` leaves that
  buffer alone;
- `integers(n)` is Lemire's multiply-and-reject on 32-bit draws, for
  1 <= n <= 2**32, with no draw at n = 1;
- `permutation(k)` is numpy's Fisher–Yates shuffle of `range(k)`, each swap
  index a masked 32-bit draw rejected while above the position.

`close()` gives back the block's unused words, so the generator ends where
the same calls on it would have left it. `generator()` does the same and
hands the generator over for vector draws, which only SBO makes; the stream
draws nothing after.
"""

from __future__ import annotations

from operator import length_hint
from typing import Iterator

import numpy as np

_BLOCK = 512
_UNIT = 2.0**-53
_LOW32 = 0xFFFFFFFF
_TWO32 = 1 << 32
_PERIOD = 1 << 128


class Draws:
    """The scalar draws of one PCG64 `Generator`, served from blocks of its raw words."""

    def __init__(self, rng: np.random.Generator) -> None:
        self._rng = rng
        self._bits = rng.bit_generator
        state = self._bits.state
        self._has32 = bool(state["has_uint32"])
        self._half = state["uinteger"]
        self._words: Iterator[int] = iter(())
        self._handed_over = False

    def _word(self) -> int:
        try:
            return next(self._words)
        except StopIteration:
            if self._handed_over:
                raise RuntimeError("the stream's generator was handed over; draw from it") from None
            self._words = iter(self._bits.random_raw(_BLOCK).tolist())
            return next(self._words)

    def _uint32(self) -> int:
        if self._has32:
            self._has32 = False
            return self._half
        word = self._word()
        self._has32 = True
        self._half = word >> 32
        return word & _LOW32

    def random(self) -> float:
        """`Generator.random()`: a uniform float in [0, 1)."""
        try:
            return (next(self._words) >> 11) * _UNIT
        except StopIteration:
            return (self._word() >> 11) * _UNIT

    def integers(self, n: int) -> int:
        """`Generator.integers(n)`: a uniform integer in [0, n), for 1 <= n <= 2**32."""
        if not 1 < n <= _TWO32:
            if n == 1:
                return 0
            raise ValueError(f"integers(n) needs 1 <= n <= 2**32, got {n}")
        m = self._uint32() * n
        if m & _LOW32 < n:
            threshold = (_TWO32 - n) % n
            while m & _LOW32 < threshold:
                m = self._uint32() * n
        return m >> 32

    def knobs(self, cards: tuple[int, ...]) -> tuple[int, ...]:
        """One uniform level per knob, in axis order: `random_knobs` on the generator."""
        return tuple([self.integers(card) for card in cards])

    def permutation(self, k: int) -> list[int]:
        """`Generator.permutation(k).tolist()`, for k <= 2**32."""
        out = list(range(k))
        for i in range(k - 1, 0, -1):
            mask = (1 << i.bit_length()) - 1
            j = self._uint32() & mask
            while j > i:
                j = self._uint32() & mask
            out[i], out[j] = out[j], out[i]
        return out

    def close(self) -> None:
        """Rewind the generator over the block's unused words and hand it the
        32-bit buffer, leaving it where the same scalar calls would have."""
        if self._handed_over:
            return
        unused = length_hint(self._words)
        self._words = iter(())
        if unused:
            self._bits.advance(_PERIOD - unused)  # advance() also clears the buffer
        state = self._bits.state
        state["has_uint32"], state["uinteger"] = int(self._has32), self._half
        self._bits.state = state

    def generator(self) -> np.random.Generator:
        """The generator, synced to the stream, for an explorer whose draws are
        mostly vectors (SBO's candidate picks and noise); the stream draws
        nothing after it."""
        self.close()
        self._handed_over = True
        self._has32 = False
        return self._rng
