"""CNF instances: DIMACS parsing, truth evaluation, brute-force model counting."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

DEFAULT_BRUTE_FORCE_LIMIT = 24
# count_satisfying enumerates 2**_CHUNK_LOG2 assignments at a time (128 KiB per plane)
_CHUNK_LOG2 = 20
_ONES = (1 << 64) - 1
# _WORD_PATTERNS[s] has bit j set where bit s of j is set, for j < 64
_WORD_PATTERNS = tuple(sum(1 << j for j in range(64) if j >> s & 1) for s in range(6))


class DimacsParseError(ValueError):
    """Raised on malformed DIMACS input; carries the offending line number."""

    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line


class BruteForceLimitError(ValueError):
    """Raised when an instance is too large for exhaustive enumeration."""


@dataclass(frozen=True)
class Literal:
    """A Boolean variable (1-based) or its negation."""

    variable: int
    negated: bool = False

    def __post_init__(self):
        if self.variable < 1:
            raise ValueError(f"variable index must be >= 1, got {self.variable}")


@dataclass(frozen=True)
class Clause:
    """A nonempty disjunction of literals, duplicate-free."""

    literals: tuple[Literal, ...]

    def __post_init__(self):
        if len(self.literals) == 0:
            raise ValueError("clause must contain at least one literal")
        seen = set()
        for lit in self.literals:
            key = (lit.variable, lit.negated)
            if key in seen:
                raise ValueError(f"duplicate literal {key} in clause")
            seen.add(key)

    def __len__(self):
        return len(self.literals)


@dataclass(frozen=True)
class CnfInstance:
    """A conjunction of clauses over n Boolean variables."""

    n: int
    clauses: tuple[Clause, ...]

    def __post_init__(self):
        if self.n < 1:
            raise ValueError(f"variable count must be >= 1, got {self.n}")
        if len(self.clauses) == 0:
            raise ValueError("instance must contain at least one clause")
        for clause in self.clauses:
            for lit in clause.literals:
                if lit.variable > self.n:
                    raise ValueError(
                        f"variable {lit.variable} exceeds declared count {self.n}"
                    )

    @property
    def m(self) -> int:
        return len(self.clauses)


def parse_dimacs(text: str) -> CnfInstance:
    """Parse DIMACS CNF text into a CnfInstance.

    Accepts optional ``c`` comment lines, a single ``p cnf n m`` header and
    exactly m zero-terminated clauses.  Clause tokens may span lines.  A
    line starting with ``%`` (the SATLIB trailer) ends the clause data;
    everything after it is ignored.
    """
    n = None
    m = None
    header_line = 0
    clauses: list[Clause] = []
    current: list[Literal] = []
    current_keys: set[tuple[int, bool]] = set()

    for lineno, raw in enumerate(text.splitlines(), start=1):
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
            try:
                n, m = int(parts[2]), int(parts[3])
            except ValueError:
                raise DimacsParseError(f"non-integer header fields in {line!r}", lineno)
            if n < 1 or m < 1:
                raise DimacsParseError(f"header requires n >= 1 and m >= 1, got {line!r}", lineno)
            header_line = lineno
            continue
        if n is None:
            raise DimacsParseError("clause data before 'p cnf' header", lineno)
        for token in line.split():
            try:
                value = int(token)
            except ValueError:
                raise DimacsParseError(f"non-integer token {token!r}", lineno)
            if value == 0:
                if not current:
                    raise DimacsParseError("empty clause", lineno)
                clauses.append(Clause(tuple(current)))
                current = []
                current_keys = set()
                continue
            variable = abs(value)
            if variable > n:
                raise DimacsParseError(f"variable {variable} exceeds n={n}", lineno)
            key = (variable, value < 0)
            if key in current_keys:
                raise DimacsParseError(f"duplicate literal {value} in clause", lineno)
            current_keys.add(key)
            current.append(Literal(variable, value < 0))

    last = len(text.splitlines()) or 1
    if n is None:
        raise DimacsParseError("missing 'p cnf' header", last)
    if current:
        raise DimacsParseError("unterminated clause at end of input", last)
    if len(clauses) != m:
        raise DimacsParseError(
            f"header on line {header_line} declares {m} clauses, found {len(clauses)}", last
        )
    return CnfInstance(n, tuple(clauses))


def render_dimacs(instance: CnfInstance) -> str:
    """Serialize an instance back to DIMACS text (inverse of parse_dimacs)."""
    lines = [f"p cnf {instance.n} {instance.m}"]
    for clause in instance.clauses:
        nums = [(-lit.variable if lit.negated else lit.variable) for lit in clause.literals]
        lines.append(" ".join(str(v) for v in nums) + " 0")
    return "\n".join(lines) + "\n"


def evaluate(instance: CnfInstance, bits) -> int:
    """Truth value of the conjunction under an assignment (sequence of 0/1)."""
    if len(bits) != instance.n:
        raise ValueError(f"assignment length {len(bits)} != n={instance.n}")
    for clause in instance.clauses:
        if not any(
            (1 - bits[lit.variable - 1] if lit.negated else bits[lit.variable - 1])
            for lit in clause.literals
        ):
            return 0
    return 1


def count_satisfying(instance: CnfInstance, limit: int = DEFAULT_BRUTE_FORCE_LIMIT) -> int:
    """Number of satisfying assignments, by exhaustive enumeration.

    Bit k of the assignment index is variable k read from the most
    significant position, matching the simulator's qubit ordering.  The
    indices are enumerated in chunks of 2**_CHUNK_LOG2, each held as
    packed 64-bit words: index bit s is variable n - s, a plane of words
    for the low bits and one constant per chunk for the high bits, so
    memory does not grow with n.
    """
    n = instance.n
    if n > limit:
        raise BruteForceLimitError(f"n={n} exceeds brute-force limit {limit}")
    low = min(n, _CHUNK_LOG2)
    words = max(1, 2**low // 64)
    planes = [_plane(s, words) for s in range(low)]
    total = 0
    for chunk in range(2 ** (n - low)):
        sat = np.full(words, _ONES, dtype=np.uint64)
        for clause in instance.clauses:
            value = np.zeros(words, dtype=np.uint64)
            for lit in clause.literals:
                s = n - lit.variable
                if s < low:
                    value |= ~planes[s] if lit.negated else planes[s]
                elif (chunk >> (s - low) & 1) ^ lit.negated:
                    break  # a high literal true on the whole chunk satisfies the clause
            else:
                sat &= value
        if low < 6:
            sat &= np.uint64((1 << 2**low) - 1)  # one partial word
        total += int.from_bytes(sat.tobytes(), "little").bit_count()
    return total


def _plane(s: int, words: int) -> np.ndarray:
    """Bit s of the indices 0 .. 64 * words - 1, packed into 64-bit words.

    For s < 6 every word is the same pattern; for s >= 6 each word is all
    ones or all zeros.
    """
    if s < 6:
        return np.full(words, _WORD_PATTERNS[s], dtype=np.uint64)
    halves = np.repeat(np.array([0, _ONES], dtype=np.uint64), 2 ** (s - 6))
    return np.tile(halves, words // halves.size)


def assignment_from_index(index: int, n: int) -> tuple[int, ...]:
    """Bits of a basis index, variable 1 first (most significant bit)."""
    return tuple((index >> (n - k)) & 1 for k in range(1, n + 1))
