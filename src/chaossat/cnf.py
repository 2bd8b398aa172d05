"""CNF instances: DIMACS parsing, truth evaluation, brute-force model counting."""

from __future__ import annotations

import functools
import re
from dataclasses import dataclass

import numpy as np

DEFAULT_BRUTE_FORCE_LIMIT = 24
# count_satisfying holds the low index bits as planes over one run of 2**_RUN_LOG2
# assignments (2 KiB) and ORs the runs of at most _BATCH clauses at a time
_RUN_LOG2 = 14
_BATCH = 64
# a DIMACS integer: ASCII digits, no more than int()'s default limit of 4300;
# int() alone would also take "+2", "1_0" and non-ASCII digits
_INTEGER = re.compile(r"-?[0-9]{1,4300}")
_INTEGERS = re.compile(rf"{_INTEGER.pattern}(?:\s+{_INTEGER.pattern})*")  # a line of them


class DimacsParseError(ValueError):
    """Raised on malformed DIMACS input; carries the offending line number."""

    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line


class BruteForceLimitError(ValueError):
    """Raised when an instance is too large for exhaustive enumeration."""


class ClauseError(ValueError):
    """Raised by CnfInstance on a clause that breaks a rule; carries its index."""

    def __init__(self, message: str, index: int):
        super().__init__(message)
        self.index = index


@dataclass(frozen=True)
class CnfInstance:
    """A conjunction of clauses over n Boolean variables.

    A clause is a nonempty tuple of DIMACS literals: v for variable v
    (1-based), -v for its negation.  It may not repeat a literal, but may
    hold both v and -v.
    """

    n: int
    clauses: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        n = self.n
        if n < 1:
            raise ValueError(f"variable count must be >= 1, got {n}")
        if len(self.clauses) == 0:
            raise ValueError("instance must contain at least one clause")
        for index, clause in enumerate(self.clauses):
            if not clause:
                raise ClauseError("clause must contain at least one literal", index)
            if len(set(clause)) != len(clause):
                raise ClauseError(f"duplicate literal in clause {clause}", index)
            for lit in clause:
                if lit == 0:
                    raise ClauseError("variable index must be >= 1, got 0", index)
                if abs(lit) > n:
                    raise ClauseError(f"variable {abs(lit)} exceeds declared count {n}", index)

    @property
    def m(self) -> int:
        return len(self.clauses)


def parse_dimacs(text: str | bytes) -> CnfInstance:
    """Parse DIMACS CNF text, or the UTF-8 bytes of a file, into a CnfInstance.

    Accepts optional ``c`` comment lines, a single ``p cnf n m`` header and
    exactly m zero-terminated clauses.  Integers are ASCII ``-?[0-9]+``.
    Clause tokens may span lines.  A line starting with ``%`` (the SATLIB
    trailer) ends the clause data; everything after it is ignored.
    """
    if isinstance(text, bytes):
        try:
            text = text.decode()
        except UnicodeDecodeError as exc:
            # the bytes before the bad one decode; the "x" stands for the line it is on
            line = len((text[:exc.start].decode() + "x").splitlines())
            raise DimacsParseError(f"invalid UTF-8 byte 0x{text[exc.start]:02x}", line) from None
    n = None
    clauses: list[tuple[int, tuple[int, ...]]] = []  # (the line of its 0, its literals)
    current: list[int] = []  # the open clause's tokens
    lines = text.splitlines()

    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        if line.startswith("%"):
            break
        if line.startswith("p"):
            if n is not None:
                raise DimacsParseError("duplicate problem header", lineno)
            parts = line.split()
            if len(parts) != 4 or parts[1] != "cnf":
                raise DimacsParseError(f"malformed header {line!r}", lineno)
            if not (_INTEGER.fullmatch(parts[2]) and _INTEGER.fullmatch(parts[3])):
                raise DimacsParseError(f"non-integer header fields in {line!r}", lineno)
            header_line, n, m = lineno, int(parts[2]), int(parts[3])
            continue
        if n is None:
            raise DimacsParseError("clause data before 'p cnf' header", lineno)
        tokens = line.split()
        if not _INTEGERS.fullmatch(line):  # one check per line, then the token at fault
            bad = next(token for token in tokens if not _INTEGER.fullmatch(token))
            raise DimacsParseError(f"non-integer token {bad!r}", lineno)
        for literal in map(int, tokens):
            current.append(literal)
            if literal == 0:
                clauses.append((lineno, tuple(current[:-1])))
                current = []

    last = len(lines) or 1
    if n is None:
        raise DimacsParseError("missing 'p cnf' header", last)
    if current:
        raise DimacsParseError("unterminated clause at end of input", last)
    if len(clauses) != m:
        raise DimacsParseError(
            f"header on line {header_line} declares {m} clauses, found {len(clauses)}", last
        )
    try:
        return CnfInstance(n, tuple(clause for _, clause in clauses))
    except ValueError as exc:  # a clause's rules at the line of its 0, n's and m's at the header
        line = clauses[exc.index][0] if isinstance(exc, ClauseError) else header_line
        raise DimacsParseError(str(exc), line) from None


def render_dimacs(instance: CnfInstance) -> str:
    """Serialize an instance back to DIMACS text (inverse of parse_dimacs)."""
    lines = [f"p cnf {instance.n} {instance.m}"]
    for clause in instance.clauses:
        lines.append(" ".join(map(str, clause)) + " 0")
    return "\n".join(lines) + "\n"


def evaluate(instance: CnfInstance, bits) -> int:
    """Truth value of the conjunction under an assignment (sequence of 0/1)."""
    if len(bits) != instance.n:
        raise ValueError(f"assignment length {len(bits)} != n={instance.n}")
    for clause in instance.clauses:
        if not any(bits[abs(lit) - 1] != (lit < 0) for lit in clause):
            return 0
    return 1


def check_brute_force_limit(n: int, limit: int = DEFAULT_BRUTE_FORCE_LIMIT) -> None:
    """Refuse to enumerate the 2**n assignments of more than limit variables."""
    if n > limit:
        raise BruteForceLimitError(f"n={n} exceeds brute-force limit {limit}")


def count_satisfying(instance: CnfInstance, limit: int = DEFAULT_BRUTE_FORCE_LIMIT) -> int:
    """Number of satisfying assignments, by exhaustive enumeration.

    Bit k of the assignment index is variable k read from the most
    significant position, matching the simulator's qubit ordering.  The
    2**n assignments are held as packed 64-bit words (Biham's bit-slicing,
    FSE 1997) in a ``(2,) * high`` array of runs of 2**low assignments,
    low = min(n, _RUN_LOG2).  Variables 1 .. high are the array's axes;
    the low variables are planes over one run, read from a fixed table.

    A clause is false only where each of its high literals is false, so
    it is one in-place AND of its low literals' OR onto that subcube.  A
    clause that holds v and -v on a high variable is skipped; clauses with
    no high literal are folded into one AND over the whole array.  Memory
    is 2**n / 8 bytes for the array plus one batch of _BATCH runs,
    whatever m is.
    """
    n = instance.n
    check_brute_force_limit(n, limit)
    low = min(n, _RUN_LOG2)
    high = n - low
    table = _run_table(low)
    every = slice(None)
    width = max(map(len, instance.clauses))
    pad = [low] * width  # the zero row
    # only the 2**low valid bits of a partial word are set, so no AND clears the rest
    sat = np.full((2,) * high + table.shape[1:], (1 << min(64, 2**low)) - 1, dtype=np.uint64)
    fold = sat[(0,) * high].copy()  # the AND of the clauses with no high literal
    for start in range(0, instance.m, _BATCH):
        cubes = []
        rows = []  # each clause's low rows, padded to width
        for clause in instance.clauses[start:start + _BATCH]:
            where = [every] * high
            lows = []
            for lit in clause:
                v = abs(lit)
                if v > high:
                    lows.append(n - v if lit > 0 else low + 1 + n - v)
                elif where[v - 1] is every:
                    where[v - 1] = int(lit < 0)  # the value at which lit is false
                else:
                    break  # v and -v: the clause is true everywhere
            else:
                cubes.append(tuple(where) if len(lows) < len(clause) else None)
                rows += lows
                rows += pad[len(lows):]
        rows = np.array(rows, dtype=np.intp).reshape(-1, width)
        runs = table[rows[:, 0]]
        for column in rows.T[1:]:
            runs |= table[column]
        for where, run in zip(cubes, runs):
            if where is None:
                fold &= run
            else:
                cube = sat[where]  # a view: `sat[where] &= run` would also copy it back
                cube &= run
    sat &= fold
    slices = sat.reshape(-1, min(sat.size, 2**14))  # 128 KiB each: the array is never copied
    return sum(int.from_bytes(s.tobytes(), "little").bit_count() for s in slices)


@functools.cache
def _run_table(low: int) -> np.ndarray:
    """Read-only rows over one run of 2**low assignments: the low planes,
    one zero row, then the planes' complements.

    Row s is index bit s (variable n - s), row low is zero and row
    low + 1 + s is the complement of row s.
    """
    bits = np.zeros((low, 64 * max(1, 2**low // 64)), dtype=np.uint8)  # a partial run fills a word
    for s in range(low):  # bit s is set in the upper half of each block of 2**(s + 1) indices
        bits[s].reshape(-1, 2, 2**s)[:, 1] = 1
    # bit j of word w is index 64 w + j, whatever the machine's byte order
    planes = np.packbits(bits, axis=1, bitorder="little").view("<u8")
    table = np.concatenate([planes, np.zeros((1, planes.shape[1]), dtype=np.uint64), ~planes])
    table.flags.writeable = False
    return table


def assignment_from_index(index: int, n: int) -> tuple[int, ...]:
    """Bits of a basis index, variable 1 first (most significant bit)."""
    return tuple((index >> (n - k)) & 1 for k in range(1, n + 1))
