"""Two-to-one oracles, staged circuit evolution, and second-register measurement.

A hidden nonzero mask ``s`` pairs the inputs of f as {x, x ^ s}; f is constant
on each pair and distinct across pairs.  ``s == 0`` means f is a bijection.
The circuit runs |0...0> through a Hadamard layer on the first register, the
reversible oracle |x>|z> -> |x>|z ^ f(x)>, and a second Hadamard layer.

Every stage is held factored (see ``states.StateVector``): after the oracle,
column f(x) holds the indicator of f^-1(f(0)) shifted by the smallest input
of value f(x) (Simon, SIAM J. Comput. 26(5), 1997), and the second layer
turns each shift into a sign flip of one transformed base.  No stage holds
more than N codes and N/2 offsets, so the circuit runs up to n = 20.
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
        _require_oracle_bits(self.n)
        size = 1 << self.n
        table = np.asarray(self.table).reshape(-1)
        if table.size != size:
            raise ValueError(f"table must have {size} entries, got {table.size}")
        if table.dtype.kind not in "iu" or table.min() < 0 or table.max() >= size:
            raise ValueError("table values must be n-bit integers")
        object.__setattr__(self, "table", table.astype(np.int64, copy=False))
        if not 0 <= self.s < size:
            raise ValueError(f"s must be an n-bit integer, got {self.s}")

    def __call__(self, x: int) -> int:
        return int(self.table[x])


def _require_oracle_bits(n: int) -> None:
    if not 1 <= n <= MAX_ORACLE_BITS:
        raise ValueError(f"n must lie in [1, {MAX_ORACLE_BITS}], got {n}")


def random_two_to_one(n: int, s: int, seed) -> SimonFunction:
    """Uniform random two-to-one table with pairing mask s (nonzero).

    Images are drawn uniformly without replacement, so the function is
    deterministic for a fixed seed.
    """
    _require_oracle_bits(n)
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
    _require_oracle_bits(n)
    rng = np.random.default_rng(seed)
    return SimonFunction(n, rng.permutation(1 << n), 0)


def validate_function(f: SimonFunction) -> tuple[bool, str | None]:
    """Check the table against its declared mask: (True, None), else (False,
    the diagnostic of ``_pair_violation`` at ``f.s``)."""
    why = _pair_violation(f.table, f.n, f.s)
    return why is None, why


def _pair_violation(table: np.ndarray, n: int, s: int) -> str | None:
    """None when f is constant exactly on the pairs {x, x ^ s}, else a diagnostic.

    It names the first x with f(x) != f(x ^ s).  Failing none, some
    f(x) = f(y) with y not in {x, x ^ s} exactly when a value has more than
    two inputs (more than one for s = 0); it names the smallest such value,
    with the first two of its inputs, in increasing order, that do not differ
    by s.
    """
    if s:
        mismatched = np.flatnonzero(table != table[np.arange(1 << n) ^ s])
        if mismatched.size:
            x = int(mismatched[0])
            return (
                f"f({int_to_bits(x, n)}) = {int_to_bits(int(table[x]), n)} but "
                f"f({int_to_bits(x ^ s, n)}) = {int_to_bits(int(table[x ^ s]), n)}; "
                f"expected f(x) = f(x xor s) for s = {int_to_bits(s, n)}"
            )
    crowded = np.flatnonzero(np.bincount(table, minlength=1 << n) > (2 if s else 1))
    if not crowded.size:
        return None
    value = int(crowded[0])
    inputs = np.flatnonzero(table == value)
    k = int(np.flatnonzero((inputs[1:] ^ inputs[:-1]) != s)[0])
    a, b = int(inputs[k]), int(inputs[k + 1])
    if s == 0:
        return (
            f"declared bijective but f({int_to_bits(a, n)}) = "
            f"f({int_to_bits(b, n)}) = {int_to_bits(value, n)}"
        )
    return (
        f"f({int_to_bits(a, n)}) = f({int_to_bits(b, n)}) but "
        f"{int_to_bits(a, n)} xor {int_to_bits(b, n)} != {int_to_bits(s, n)}"
    )


def oracle_apply(psi: StateVector, f: SimonFunction) -> StateVector:
    """Reversible oracle |x>|z> -> |x>|z ^ f(x)> on a one-column state, factored.

    The mask t is read from P0 = f^-1(f(0)), which must be {0} or {0, t};
    ``f.s`` is never read.  ``_pair_violation`` at t checks that the preimage
    sets are the pairs r ^ P0, with r the smaller of each, and the input
    column c must repeat on P0 across them: c[r ^ p] = c[p].  Then the code at
    (x, z) moves to column z ^ f(x), and the output is the shift form with
    base c * 1_P0 and offset r in column z ^ f(r), as for the Hadamard stage,
    whose column is uniform.  Any other input cannot be factored and raises
    ValueError.  Codes are moved, never combined, so the exponent is kept.
    """
    if psi.n_first != f.n or psi.n_second != f.n:
        raise ValueError(f"the circuit of an f on {f.n} bits needs a {f.n}+{f.n} register "
                         f"state, got {psi.n_first}+{psi.n_second}")
    if psi.columns.size != 1:
        raise ValueError(f"the oracle takes a one-column state, got {psi.columns.size} columns")
    size = 1 << f.n
    p0 = np.flatnonzero(f.table == f.table[0])
    t = int(p0[-1])
    why = f"f^-1(f(0)) holds {p0.size} inputs" if p0.size > 2 else _pair_violation(f.table, f.n, t)
    # the pairs r ^ P0 along axis 1, r the one without t's top bit h; x % h along axis 2
    pairs = (-1, p0.size, max(1 << t.bit_length() >> 1, 1))
    codes = psi.column(0)
    if why is None and (codes.reshape(pairs) != codes[p0][:, None]).any():
        why = "the input column does not repeat on f^-1(f(0))"
    if why is not None:
        raise ValueError(f"the oracle's output does not factor: {why}")
    reps = np.arange(size).reshape(pairs)[:, 0].reshape(-1)
    # each pair's r in its target column f(r) ^ z, or size in a column no input reaches
    first = np.full(size, size)
    first[f.table[reps] ^ int(psi.columns[0])] = reps
    columns = np.flatnonzero(first < size)
    base = np.zeros(size, dtype=np.int8)
    base[p0] = codes[p0]
    return StateVector(psi.n_first, psi.n_second, columns, base, first[columns], psi.e)


def run_stages(f: SimonFunction) -> dict[Stage, StateVector]:
    """Evolve |0...0> through the circuit, returning every intermediate state.

    The oracle stage must hold f's graph: in the shift form, f maps every
    nonzero row of every occupied column z (the base's nonzero rows moved by
    z's offset) to z.  Otherwise it raises ValueError, as it does for a table
    that ``validate_function`` rejects.
    """
    ok, why = validate_function(f)
    if not ok:
        raise ValueError(f"invalid oracle table: {why}")
    initial = basis_state(f.n, f.n, 0)
    after_hadamard = hadamard_first_register(initial)
    after_oracle = oracle_apply(after_hadamard, f)
    rows = np.flatnonzero(after_oracle.base)[:, None] ^ after_oracle.offsets
    if after_oracle.phase or not (f.table[rows] == after_oracle.columns).all():
        raise ValueError("the oracle stage does not hold f's graph: some column z has a row x "
                         "with f(x) != z")
    final = hadamard_first_register(after_oracle)
    return {
        Stage.INITIAL: initial,
        Stage.HADAMARD: after_hadamard,
        Stage.ORACLE: after_oracle,
        Stage.FINAL_HADAMARD: final,
    }


def measure_second_register(psi: StateVector, seed) -> tuple[int, StateVector]:
    """Born-sample an f-image from the second register and collapse the state.

    Each column is drawn by ``born_samples`` in proportion to its count of
    codes, the same for every column of a factored state, so an impossible
    image can never be observed.  The returned state is the renormalized
    projection onto the observed image: that column's codes gathered into a
    one-column state with e = log2 of their count, which the ``StateVector``
    check requires to be an integer.
    """
    count = psi.support // psi.columns.size
    j = next(born_samples(np.full(psi.columns.size, count), np.random.default_rng(seed)))
    collapsed = StateVector(psi.n_first, psi.n_second, psi.columns[j:j + 1], psi.column(j),
                            np.zeros(1, dtype=np.int64), count.bit_length() - 1)
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
    n_text = header[0][2:]
    # int() would also read "0_2", "+2" and non-ASCII digits; the bits are ASCII 0/1
    if not (n_text.isascii() and n_text.isdigit()):
        raise FunctionTableError(1, f"invalid n in header: {n_text!r}")
    n = int(n_text)
    try:
        _require_oracle_bits(n)
    except ValueError as exc:
        raise FunctionTableError(1, str(exc)) from None
    s_bits = header[1][2:]
    if len(s_bits) != n:
        raise FunctionTableError(1, f"s must be exactly {n} bits, got {s_bits!r}")
    try:
        return n, bits_to_int(s_bits)
    except ValueError:
        raise FunctionTableError(1, f"invalid s in header: {s_bits!r}") from None
