"""Two-to-one oracles, staged circuit evolution, and second-register measurement.

A hidden nonzero mask ``s`` pairs the inputs of f as {x, x ^ s}; f is constant
on each pair and distinct across pairs.  ``s == 0`` means f is a bijection.
The circuit runs |0...0> through a Hadamard layer on the first register, the
reversible oracle |x>|z> -> |x>|z ^ f(x)>, and a second Hadamard layer.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .states import StateVector, basis_state, born_samples, hadamard_first_register
from .tolerances import MAX_ORACLE_BITS

__all__ = [
    "Stage",
    "SimonFunction",
    "FunctionTableError",
    "bits_to_int",
    "int_to_bits",
    "random_two_to_one",
    "random_bijection",
    "validate_function",
    "oracle_apply",
    "run_stages",
    "measure_second_register",
    "format_function_table",
    "parse_function_table",
]


def bits_to_int(bits: str) -> int:
    """Parse a big-endian bit string such as "110" (the integer 6)."""
    if not bits or bits.strip("01"):
        raise ValueError(f"invalid bit string: {bits!r}")
    return int(bits, 2)


def int_to_bits(value: int, width: int) -> str:
    return format(value, f"0{width}b")


class Stage(Enum):
    """Labels for the circuit's intermediate states."""

    INITIAL = "initial"
    HADAMARD = "hadamard"
    ORACLE = "oracle"
    FINAL_HADAMARD = "final_hadamard"
    POST_MEASURE = "post_measure"


@dataclass(frozen=True, eq=False)
class SimonFunction:
    """Truth table of f on n-bit inputs together with its pairing mask s."""

    n: int
    table: np.ndarray
    s: int

    def __post_init__(self) -> None:
        if not 1 <= self.n <= MAX_ORACLE_BITS:
            raise ValueError(f"n must lie in [1, {MAX_ORACLE_BITS}], got {self.n}")
        size = 1 << self.n
        table = np.asarray(self.table, dtype=np.int64).reshape(-1)
        object.__setattr__(self, "table", table)
        if table.size != size:
            raise ValueError(f"table must have {size} entries, got {table.size}")
        if table.size and (table.min() < 0 or table.max() >= size):
            raise ValueError("table values must be n-bit integers")
        if not 0 <= self.s < size:
            raise ValueError(f"s must be an n-bit integer, got {self.s}")

    def __call__(self, x: int) -> int:
        return int(self.table[x])


def random_two_to_one(n: int, s: int, seed) -> SimonFunction:
    """Uniform random two-to-one table with pairing mask s (nonzero).

    Images are drawn uniformly without replacement, so the function is
    deterministic for a fixed seed.
    """
    if not 1 <= n <= MAX_ORACLE_BITS:
        raise ValueError(f"n must lie in [1, {MAX_ORACLE_BITS}], got {n}")
    size = 1 << n
    if not 1 <= s < size:
        raise ValueError("s must be a nonzero n-bit value; use random_bijection for s = 0")
    rng = np.random.default_rng(seed)
    images = rng.choice(size, size=size // 2, replace=False)
    xs = np.arange(size)
    reps = xs[xs < (xs ^ s)]
    table = np.empty(size, dtype=np.int64)
    table[reps] = images
    table[reps ^ s] = images
    return SimonFunction(n, table, s)


def random_bijection(n: int, seed) -> SimonFunction:
    """Uniform random bijective table; its mask is 0 by definition."""
    if not 1 <= n <= MAX_ORACLE_BITS:
        raise ValueError(f"n must lie in [1, {MAX_ORACLE_BITS}], got {n}")
    rng = np.random.default_rng(seed)
    return SimonFunction(n, rng.permutation(1 << n), 0)


def validate_function(f: SimonFunction) -> tuple[bool, str | None]:
    """Check the table against its declared mask.

    Returns (True, None) on success, else (False, diagnostic) naming the
    first violating input pair.  Once f(x) = f(x ^ s) holds for every x, some
    f(x) = f(y) with y not in {x, x ^ s} exactly when a value has more than
    two inputs (more than one for a bijection); the smallest such value is
    reported, with the first two of its inputs, in increasing order, that do
    not differ by s.
    """
    n, s = f.n, f.s
    if s:
        mismatched = np.flatnonzero(f.table != f.table[np.arange(1 << n) ^ s])
        if mismatched.size:
            x = int(mismatched[0])
            return False, (
                f"f({int_to_bits(x, n)}) = {int_to_bits(f(x), n)} but "
                f"f({int_to_bits(x ^ s, n)}) = {int_to_bits(f(x ^ s), n)}; "
                f"expected f(x) = f(x xor s) for s = {int_to_bits(s, n)}"
            )
    crowded = np.flatnonzero(np.bincount(f.table, minlength=1 << n) > (2 if s else 1))
    if not crowded.size:
        return True, None
    value = int(crowded[0])
    inputs = np.flatnonzero(f.table == value)
    k = int(np.flatnonzero((inputs[1:] ^ inputs[:-1]) != s)[0])
    a, b = int(inputs[k]), int(inputs[k + 1])
    if s == 0:
        return False, (
            f"declared bijective but f({int_to_bits(a, n)}) = "
            f"f({int_to_bits(b, n)}) = {int_to_bits(value, n)}"
        )
    return False, (
        f"f({int_to_bits(a, n)}) = f({int_to_bits(b, n)}) but "
        f"{int_to_bits(a, n)} xor {int_to_bits(b, n)} != {int_to_bits(s, n)}"
    )


def oracle_apply(psi: StateVector, f: SimonFunction) -> StateVector:
    """Reversible oracle |x>|z> -> |x>|z ^ f(x)>, a basis permutation.

    Moves code (x, column z) to column z ^ f(x); the output columns are the
    sorted distinct targets, and every other output code is zero.  Codes are
    moved, never combined, so the exponent is kept.
    """
    if psi.n_first != f.n or psi.n_second != f.n:
        raise ValueError(
            f"oracle on {f.n}+{f.n} qubits cannot act on a "
            f"{psi.n_first}+{psi.n_second} register state"
        )
    targets = psi.columns ^ f.table[:, None]
    hit = np.zeros(1 << f.n, dtype=bool)
    hit[targets] = True
    columns = np.flatnonzero(hit)
    slot = np.empty(1 << f.n, dtype=np.intp)
    slot[columns] = np.arange(columns.size)
    k = np.zeros((psi.k.shape[0], columns.size), dtype=np.int8)
    k[np.arange(k.shape[0])[:, None], slot[targets]] = psi.k
    return StateVector(psi.n_first, psi.n_second, columns, k, psi.e)


def run_stages(f: SimonFunction) -> dict[Stage, StateVector]:
    """Evolve |0...0> through the circuit, returning every intermediate state."""
    ok, why = validate_function(f)
    if not ok:
        raise ValueError(f"invalid oracle table: {why}")
    initial = basis_state(f.n, f.n, 0)
    after_hadamard = hadamard_first_register(initial)
    after_oracle = oracle_apply(after_hadamard, f)
    final = hadamard_first_register(after_oracle)
    return {
        Stage.INITIAL: initial,
        Stage.HADAMARD: after_hadamard,
        Stage.ORACLE: after_oracle,
        Stage.FINAL_HADAMARD: final,
    }


def measure_second_register(psi: StateVector, f: SimonFunction, seed) -> tuple[int, StateVector]:
    """Born-sample an f-image from the second register and collapse the state.

    Each occupied column is drawn by ``born_samples`` in proportion to its
    sum of k^2, so an impossible image can never be observed.  The returned
    state is the renormalized projection onto the observed image: the
    column's codes with e = log2(sum k^2), which the ``StateVector`` check
    requires to be an integer.
    """
    if psi.n_first != f.n or psi.n_second != f.n:
        raise ValueError(
            f"oracle on {f.n}+{f.n} qubits does not match a "
            f"{psi.n_first}+{psi.n_second} register state"
        )
    squares = np.add.reduce(psi.k * psi.k, axis=0, dtype=np.int32)
    j = next(born_samples(squares, np.random.default_rng(seed)))
    column = psi.k[:, j:j + 1].copy()
    collapsed = StateVector(psi.n_first, psi.n_second, psi.columns[j:j + 1], column,
                            int(squares[j]).bit_length() - 1)
    return int(psi.columns[j]), collapsed


class FunctionTableError(ValueError):
    """Malformed function-table text; carries the offending 1-based line."""

    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line


def format_function_table(f: SimonFunction) -> str:
    """Render the table format: header ``n=<int> s=<bits>`` then one x/f(x) pair per line.

    The body is a (2^n, 2n + 2) array of ASCII bytes, filled from the
    unpacked bits of x and f(x) and decoded once with the header.
    """
    n = f.n
    header = f"n={n} s={int_to_bits(f.s, n)}\n".encode("ascii")
    text = np.empty(len(header) + ((2 * n + 2) << n), dtype=np.uint8)
    text[:len(header)] = np.frombuffer(header, dtype=np.uint8)
    body = text[len(header):].reshape(1 << n, 2 * n + 2)
    body[:, n] = ord(" ")
    body[:, -1] = ord("\n")
    for first, values in ((0, np.arange(1 << n)), (n + 1, f.table)):
        bits = np.unpackbits(values.astype(">u4").view(np.uint8)).reshape(-1, 32)
        np.bitwise_or(bits[:, 32 - n:], ord("0"), out=body[:, first:first + n])
    return str(text.data, "ascii")


def parse_function_table(text: str) -> SimonFunction:
    """Parse and validate a function table, reporting errors by line number.

    Lines end where ``str.splitlines`` ends them, tokens are the runs that
    ``str.split`` finds between whitespace, and trailing blank lines are
    ignored.  The body is decoded in one vectorised pass, at most twice:
    first as written, which accepts exactly the layout
    ``format_function_table`` writes, and else rewritten into that layout
    line by line.  The rewrite holds every line as a str, so a re-spelled
    table takes about three times the time and twice the peak memory of one
    as written.  If neither pass decodes, the body lines are walked in order
    and the first failing line is reported, with the first of these checks
    it fails: two tokens, each of exactly n characters, all of them 0 or 1,
    with the inputs in lexicographic order.
    """
    n, s, table = _read_table(text)
    f = SimonFunction(n, table, s)
    ok, why = validate_function(f)
    if not ok:
        raise FunctionTableError(1, f"table inconsistent with declared mask: {why}")
    return f


def _read_table(text: str) -> tuple[int, int, np.ndarray]:
    """(n, s, table) of a function table's text, before the mask is checked."""
    # as written: a header line ending in "\n", then the body as it stands; a
    # blank first line is left to the rewrite, which may find the table empty
    first = text.find("\n") + 1
    head = text[:first].splitlines()
    if len(head) == 1 and head[0].strip():
        n, s = _parse_header(head[0])
        table = _decode_body(text, first, n)
        if table is not None:
            return n, s, table
    # rewritten: each body line's tokens joined by single spaces
    lines = text.splitlines()
    while lines and not lines[-1].strip():
        lines.pop()
    if not lines:
        raise FunctionTableError(1, "empty function table")
    n, s = _parse_header(lines[0])
    size = 1 << n
    if len(lines) - 1 != size:
        raise FunctionTableError(
            min(len(lines) + 1, size + 2),
            f"expected {size} table lines after the header, got {len(lines) - 1}",
        )
    table = _decode_body("".join(" ".join(line.split()) + "\n" for line in lines[1:]), 0, n)
    if table is not None:
        return n, s, table
    # the rewritten body decodes unless a line fails one of these checks
    for x, line in enumerate(lines[1:]):
        parts = line.split()
        if len(parts) != 2:
            message = f"expected '<x bits> <f(x) bits>', got {line!r}"
        elif len(parts[0]) != n or len(parts[1]) != n:
            message = f"entries must be exactly {n} bits: {line!r}"
        elif (parts[0] + parts[1]).strip("01"):
            message = f"invalid bit string: {line!r}"
        elif int(parts[0], 2) != x:
            message = f"inputs must appear in lexicographic order; expected {int_to_bits(x, n)}"
        else:
            continue
        raise FunctionTableError(x + 2, message)


def _decode_body(text: str, start: int, n: int) -> np.ndarray | None:
    """The f column of ``text[start:]``, or None unless it is laid out as written.

    That layout is 2^n ASCII rows ``<x bits> <f(x) bits>\\n`` with the x in
    order.  Characters are range-checked on views of the rows, and each bit
    column is packed on its own, so no temporary is larger than half the text.
    """
    width = 2 * n + 2
    if len(text) - start != width << n or not text.isascii():
        return None
    rows = np.frombuffer(text.encode("ascii"), dtype=np.uint8, offset=start).reshape(-1, width)
    xs, fs = rows[:, :n], rows[:, n + 1:-1]
    if (rows[:, n] != ord(" ")).any() or (rows[:, -1] != ord("\n")).any():
        return None
    if min(xs.min(), fs.min()) < ord("0") or max(xs.max(), fs.max()) > ord("1"):
        return None
    if not np.array_equal(_bit_values(xs), np.arange(1 << n)):
        return None
    return _bit_values(fs).astype(np.int64)


def _bit_values(chars: np.ndarray) -> np.ndarray:
    """The big-endian integers spelled by rows of ASCII ``0``/``1`` characters."""
    width = chars.shape[1]
    packed = np.zeros((chars.shape[0], 4), dtype=np.uint8)
    packed[:, :(width + 7) // 8] = np.packbits(chars & 1, axis=1)
    return packed.view(">u4").reshape(-1) >> (32 - width)


def _parse_header(header_line: str) -> tuple[int, int]:
    """(n, s) from the header line ``n=<int> s=<bits>``."""
    header = header_line.split()
    if len(header) != 2 or not header[0].startswith("n=") or not header[1].startswith("s="):
        raise FunctionTableError(1, f"expected header 'n=<int> s=<bits>', got {header_line!r}")
    try:
        n = int(header[0][2:])
    except ValueError:
        raise FunctionTableError(1, f"invalid n in header: {header[0][2:]!r}") from None
    if not 1 <= n <= MAX_ORACLE_BITS:
        raise FunctionTableError(1, f"n must lie in [1, {MAX_ORACLE_BITS}], got {n}")
    s_bits = header[1][2:]
    if len(s_bits) != n:
        raise FunctionTableError(1, f"s must be exactly {n} bits, got {s_bits!r}")
    try:
        return n, bits_to_int(s_bits)
    except ValueError:
        raise FunctionTableError(1, f"invalid s in header: {s_bits!r}") from None
