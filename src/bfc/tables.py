"""Truth tables, restrictions, composition, and named function families.

Conventions used throughout the package:

* A total function on n variables is a :class:`TruthTable` holding a
  packed int with bit x = f(x); variable 1 is the least significant bit
  of the input index.
* The text form is ``n:HEX`` where HEX has exactly ceil(2^n / 4) digits
  and its least significant hex digit holds f(0)..f(3).  OR on two
  variables is ``2:E``.
* A :class:`Restriction` fixes 1-based variables to constants; surviving
  variables are renumbered in ascending order of their original index.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

import numpy as np

from . import bits

MAX_ARITY = 20

FAMILY_NAMES = ("OR", "AND", "PARITY", "AND-OR", "EXACT1", "XOR-OR")


@dataclass(frozen=True)
class TruthTable:
    """A total Boolean function given by its packed truth table."""

    arity: int
    table: int

    def __post_init__(self) -> None:
        if not 0 <= self.arity <= MAX_ARITY:
            raise ValueError(f"arity must be in [0, {MAX_ARITY}], got {self.arity}")
        if not 0 <= self.table <= bits.table_mask(self.arity):
            raise ValueError(f"table {self.table!r} out of range for arity {self.arity}")

    @property
    def size(self) -> int:
        return 1 << self.arity

    def value(self, x: int) -> int:
        if not 0 <= x < self.size:
            raise ValueError(f"input {x} out of range for arity {self.arity}")
        return (self.table >> x) & 1

    def is_constant(self) -> bool:
        return self.table == 0 or self.table == bits.table_mask(self.arity)

    def complement(self) -> "TruthTable":
        return TruthTable(self.arity, self.table ^ bits.table_mask(self.arity))

    def to_bit_array(self) -> np.ndarray:
        return bits.to_bit_array(self.table, self.arity)

    def __str__(self) -> str:
        return format_table(self)


@dataclass(frozen=True)
class PartialTruthTable:
    """A Boolean function defined only on a subset of inputs.

    ``domain`` is a bitmask over inputs; bits of ``table`` outside the
    domain must be zero.
    """

    arity: int
    table: int
    domain: int

    def __post_init__(self) -> None:
        if not 0 <= self.arity <= MAX_ARITY:
            raise ValueError(f"arity must be in [0, {MAX_ARITY}], got {self.arity}")
        full = bits.table_mask(self.arity)
        if not 0 <= self.domain <= full:
            raise ValueError("domain mask out of range for arity")
        if not 0 <= self.table <= full:
            raise ValueError("table value out of range for arity")
        if self.table & ~self.domain:
            raise ValueError("table sets bits outside the domain")

    @property
    def size(self) -> int:
        return 1 << self.arity

    def is_defined(self, x: int) -> bool:
        if not 0 <= x < self.size:
            raise ValueError(f"input {x} out of range for arity {self.arity}")
        return bool((self.domain >> x) & 1)

    def value(self, x: int) -> int:
        if not self.is_defined(x):
            raise ValueError(f"input {x} is outside the domain")
        return (self.table >> x) & 1


@dataclass(frozen=True)
class Restriction:
    """Assignment of constants to a subset of 1-based variables."""

    fixed: tuple[tuple[int, int], ...] = field(default_factory=tuple)

    @staticmethod
    def of(mapping: dict[int, int]) -> "Restriction":
        return Restriction(tuple(sorted(mapping.items())))

    def __post_init__(self) -> None:
        seen = set()
        for var, val in self.fixed:
            if var < 1:
                raise ValueError(f"restriction variable {var} is not 1-based")
            if var in seen:
                raise ValueError(f"variable {var} fixed twice")
            if val not in (0, 1):
                raise ValueError(f"restriction value for variable {var} must be 0 or 1")
            seen.add(var)

    def as_dict(self) -> dict[int, int]:
        return dict(self.fixed)

    def __str__(self) -> str:
        return ",".join(f"{var}={val}" for var, val in sorted(self.fixed))


def evaluate(f: TruthTable, x: int) -> int:
    """f(x) with a range check on x."""
    return f.value(x)


def restrict(f: TruthTable, restriction: Restriction) -> TruthTable:
    """Fix the restricted variables; survivors keep their order, renumbered."""
    fixed = restriction.as_dict()
    n = f.arity
    index = [slice(None)] * n
    for var, val in fixed.items():
        if var > n:
            raise ValueError(f"restriction names variable {var} beyond arity {n}")
        index[n - var] = val  # in the (2,) * n view, axis 0 is variable n
    kept = f.to_bit_array().reshape((2,) * n)[tuple(index)]
    return TruthTable(n - len(fixed), bits.from_bit_array(kept.reshape(-1)))


def compose(f: TruthTable, g: TruthTable) -> TruthTable:
    """Block composition f(g, ..., g).

    Block i of the composed input feeds copy i of g and occupies
    variables (i-1)*m+1 .. i*m, where m is g's arity.
    """
    k, m = f.arity, g.arity
    n = k * m
    if n > MAX_ARITY:
        raise ValueError(f"composed arity {k}*{m} exceeds {MAX_ARITY}")
    if k == 0:
        return f
    x = np.arange(1 << n, dtype=np.int64)
    g_bits = g.to_bit_array().astype(np.int64)
    inner = np.zeros_like(x)
    block = (1 << m) - 1
    for i in range(k):
        inner |= g_bits[(x >> (i * m)) & block] << i
    f_bits = f.to_bit_array()
    return TruthTable(n, bits.from_bit_array(f_bits[inner]))


def parity_partition(f: TruthTable) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Split inputs by agreement with the parity of the input string.

    Returns (V0, V1) where V0 = {x : f(x) = popcount(x) mod 2} and V1 is
    the complement, both in ascending input order.
    """
    par = bits.popcount_array(np.arange(f.size)) & 1
    vals = f.to_bit_array()
    agree = vals == par
    idx = np.arange(f.size)
    return tuple(int(x) for x in idx[agree]), tuple(int(x) for x in idx[~agree])


def named_family(name: str, n) -> TruthTable:
    """Construct a named family member.

    ``n`` is the arity, except for AND-OR where it is a pair (k, l) and
    the result has arity k*l (outer AND of k ORs on l variables each).
    """
    key = name.strip().upper()
    if key == "AND-OR":
        if not (isinstance(n, tuple) and len(n) == 2):
            raise ValueError("AND-OR takes a pair (k, l)")
        k, l = n
        if k < 1 or l < 1:
            raise ValueError("AND-OR block sizes must be at least 1")
        return compose(named_family("AND", k), named_family("OR", l))
    if not isinstance(n, int) or isinstance(n, bool):
        raise ValueError(f"family {name} takes an integer arity")
    if not 0 <= n <= MAX_ARITY:
        raise ValueError(f"arity must be in [0, {MAX_ARITY}], got {n}")
    full = bits.table_mask(n)
    if key == "OR":
        return TruthTable(n, full & ~1)
    if key == "AND":
        return TruthTable(n, 1 << ((1 << n) - 1))
    if key == "PARITY":
        return TruthTable(n, bits.from_bit_array(bits.popcount_array(np.arange(1 << n)) & 1))
    if key == "EXACT1":
        t = 0
        for i in range(n):
            t |= 1 << (1 << i)
        return TruthTable(n, t)
    if key == "XOR-OR":
        if n < 1:
            raise ValueError("XOR-OR needs at least one variable")
        # x1 xor OR(x2..xn)
        x = np.arange(1 << n, dtype=np.int64)
        vals = ((x & 1) ^ ((x >> 1) != 0)).astype(np.uint8)
        return TruthTable(n, bits.from_bit_array(vals))
    raise ValueError(f"unknown family {name!r}; known: {', '.join(FAMILY_NAMES)}")


def format_table(f: TruthTable) -> str:
    """Render as ``n:HEX`` with exactly ceil(2^n/4) uppercase hex digits."""
    digits = max(1, (f.size + 3) // 4)
    return f"{f.arity}:{f.table:0{digits}X}"


def parse_table(text: str) -> TruthTable:
    """Parse the ``n:HEX`` text form, validating digit count and range."""
    s = text.strip()
    head, sep, hexpart = s.partition(":")
    if not sep:
        raise ValueError(f"expected 'n:HEX', got {text!r}")
    # int() would also take a sign, spaces, underscores and non-ASCII digits
    if not re.fullmatch(r"[0-9]+", head):
        raise ValueError(f"bad arity in {text!r}")
    arity = int(head)
    if not 0 <= arity <= MAX_ARITY:
        raise ValueError(f"arity must be in [0, {MAX_ARITY}], got {arity}")
    expected = max(1, ((1 << arity) + 3) // 4)
    if len(hexpart) != expected:
        raise ValueError(
            f"expected {expected} hex digits for arity {arity}, got {len(hexpart)}"
        )
    if not re.fullmatch(r"[0-9A-Fa-f]+", hexpart):
        raise ValueError(f"bad hex digits in {text!r}")
    value = int(hexpart, 16)
    if value > bits.table_mask(arity):
        raise ValueError(f"table value exceeds 2^(2^{arity}) - 1")
    return TruthTable(arity, value)


def parse_restriction(text: str) -> Restriction:
    """Parse ``i=b,j=c`` into a Restriction."""
    s = text.strip()
    if not s:
        return Restriction()
    fixed: dict[int, int] = {}
    for part in s.split(","):
        var_s, sep, val_s = part.partition("=")
        if not sep:
            raise ValueError(f"expected 'var=value', got {part!r}")
        # int() would also take a sign, spaces, underscores and non-ASCII digits
        if not (re.fullmatch(r"[0-9]+", var_s) and re.fullmatch(r"[0-9]+", val_s)):
            raise ValueError(f"bad restriction entry {part!r}")
        var, val = int(var_s), int(val_s)
        if var in fixed:
            raise ValueError(f"variable {var} fixed twice")
        fixed[var] = val
    return Restriction.of(fixed)
