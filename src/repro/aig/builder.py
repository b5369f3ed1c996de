"""Word-level circuit construction helpers on top of the bit-level AIG.

The benchmark generators (``repro.circuits``) describe designs in terms of
registers, adders, comparators and multiplexers.  This module provides a
small hardware-construction DSL that lowers those word-level operations to
AND-inverter gates, so every generated benchmark is an ordinary
:class:`~repro.aig.aig.Aig`.

Words are little-endian lists of literals (index 0 is the least-significant
bit).
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from .aig import FALSE, TRUE, Aig, lit_negate

__all__ = ["Word", "AigBuilder"]

Word = List[int]


class AigBuilder:
    """Fluent builder for word-level sequential circuits.

    Example
    -------
    >>> b = AigBuilder("counter")
    >>> count = b.register(4, init=0, name="count")
    >>> b.connect(count, b.add_words(count.q, b.constant_word(4, 1)))
    >>> b.aig.add_bad(b.equals_const(count.q, 12), "count_hits_12")
    0
    """

    class Register:
        """A word-wide register: ``q`` holds the current-state literals."""

        def __init__(self, builder: "AigBuilder", q: Word, name: str) -> None:
            self._builder = builder
            self.q = q
            self.name = name
            self.width = len(q)

    def __init__(self, name: str = "design") -> None:
        self.aig = Aig(name)

    # ------------------------------------------------------------------ #
    # Primitives
    # ------------------------------------------------------------------ #
    def input_bit(self, name: Optional[str] = None) -> int:
        """Create a single-bit primary input."""
        return self.aig.add_input(name)

    def input_word(self, width: int, name: str = "in") -> Word:
        """Create a ``width``-bit primary input word."""
        return [self.aig.add_input(f"{name}[{i}]") for i in range(width)]

    def constant_word(self, width: int, value: int) -> Word:
        """Return a constant word for ``value`` (truncated to ``width`` bits)."""
        return [TRUE if (value >> i) & 1 else FALSE for i in range(width)]

    def register(self, width: int, init: int = 0,
                 name: str = "reg") -> "AigBuilder.Register":
        """Create a ``width``-bit register with initial value ``init``."""
        q = [self.aig.add_latch(init=(init >> i) & 1, name=f"{name}[{i}]")
             for i in range(width)]
        return AigBuilder.Register(self, q, name)

    def register_bit(self, init: int = 0, name: str = "ff") -> int:
        """Create a single-bit register; returns its literal."""
        return self.aig.add_latch(init=init, name=name)

    def connect(self, reg: "AigBuilder.Register", next_word: Word) -> None:
        """Wire a register's next-state function to ``next_word``."""
        if len(next_word) != reg.width:
            raise ValueError(
                f"width mismatch connecting {reg.name}: {len(next_word)} vs {reg.width}")
        for q_bit, d_bit in zip(reg.q, next_word):
            self.aig.set_latch_next(q_bit, d_bit)

    def connect_bit(self, latch_lit: int, next_lit: int) -> None:
        """Wire a single-bit register's next-state function."""
        self.aig.set_latch_next(latch_lit, next_lit)

    # ------------------------------------------------------------------ #
    # Bitwise and Boolean operations
    # ------------------------------------------------------------------ #
    def not_word(self, a: Word) -> Word:
        return [lit_negate(bit) for bit in a]

    def mux_word(self, sel: int, then_word: Word, else_word: Word) -> Word:
        """Word-wide 2:1 multiplexer: ``sel ? then_word : else_word``."""
        self._check_widths(then_word, else_word)
        return [self.aig.op_ite(sel, t, e) for t, e in zip(then_word, else_word)]

    def all_of(self, *lits: int) -> int:
        return self.aig.op_and(*lits)

    def any_of(self, *lits: int) -> int:
        return self.aig.op_or(*lits)

    # ------------------------------------------------------------------ #
    # Arithmetic
    # ------------------------------------------------------------------ #
    def half_adder(self, a: int, b: int) -> Tuple[int, int]:
        """Return ``(sum, carry)``."""
        return self.aig.op_xor(a, b), self.aig.add_and(a, b)

    def full_adder(self, a: int, b: int, carry_in: int) -> Tuple[int, int]:
        """Return ``(sum, carry_out)``."""
        s1, c1 = self.half_adder(a, b)
        s2, c2 = self.half_adder(s1, carry_in)
        return s2, self.aig.op_or(c1, c2)

    def add_words(self, a: Word, b: Word, carry_in: int = FALSE) -> Word:
        """Ripple-carry addition, result truncated to the operand width."""
        self._check_widths(a, b)
        out: Word = []
        carry = carry_in
        for x, y in zip(a, b):
            s, carry = self.full_adder(x, y, carry)
            out.append(s)
        return out

    def increment(self, a: Word) -> Word:
        """Return ``a + 1`` (modulo ``2 ** width``)."""
        return self.add_words(a, self.constant_word(len(a), 0), carry_in=TRUE)

    def decrement(self, a: Word) -> Word:
        """Return ``a - 1`` (modulo ``2 ** width``)."""
        return self.add_words(a, self.constant_word(len(a), (1 << len(a)) - 1))

    # ------------------------------------------------------------------ #
    # Comparators
    # ------------------------------------------------------------------ #
    def equals(self, a: Word, b: Word) -> int:
        """Return a literal that is true iff ``a == b``."""
        self._check_widths(a, b)
        return self.aig.op_and(*[self.aig.op_xnor(x, y) for x, y in zip(a, b)])

    def equals_const(self, a: Word, value: int) -> int:
        """Return a literal that is true iff ``a == value``."""
        return self.equals(a, self.constant_word(len(a), value))

    def less_than(self, a: Word, b: Word) -> int:
        """Unsigned ``a < b``."""
        self._check_widths(a, b)
        lt = FALSE
        for x, y in zip(a, b):  # LSB -> MSB
            bit_lt = self.aig.add_and(lit_negate(x), y)
            bit_eq = self.aig.op_xnor(x, y)
            lt = self.aig.op_or(bit_lt, self.aig.add_and(bit_eq, lt))
        return lt

    def greater_equal_const(self, a: Word, value: int) -> int:
        return lit_negate(self.less_than(a, self.constant_word(len(a), value)))

    # ------------------------------------------------------------------ #
    # Word utilities
    # ------------------------------------------------------------------ #
    def shift_left(self, a: Word, fill: int = FALSE) -> Word:
        """Return ``a`` shifted left by one bit (LSB filled with ``fill``)."""
        return [fill] + list(a[:-1])

    def one_hot(self, bits: Sequence[int]) -> int:
        """Return a literal true iff exactly one of ``bits`` is asserted."""
        at_least_one = self.aig.op_or(*bits)
        at_most_one = TRUE
        for i, x in enumerate(bits):
            for y in bits[i + 1:]:
                at_most_one = self.aig.add_and(
                    at_most_one, lit_negate(self.aig.add_and(x, y)))
        return self.aig.add_and(at_least_one, at_most_one)

    def at_most_one(self, bits: Sequence[int]) -> int:
        """Return a literal true iff at most one of ``bits`` is asserted."""
        out = TRUE
        for i, x in enumerate(bits):
            for y in bits[i + 1:]:
                out = self.aig.add_and(out, lit_negate(self.aig.add_and(x, y)))
        return out

    def _check_widths(self, a: Word, b: Word) -> None:
        if len(a) != len(b):
            raise ValueError(f"word width mismatch: {len(a)} vs {len(b)}")
