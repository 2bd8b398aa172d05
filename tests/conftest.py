import random
from itertools import product

import pytest

from chaossat import cnf, gates

PERMUTATION_KINDS = [kind for kind, (_, flip) in gates.SEMANTICS.items() if flip is not None]


def ops_of_kind(kind):
    """A permutation kind on a width-4 register, once per set of negation flags."""
    n_controls = gates.SEMANTICS[kind][0] - 1
    wires = (1, 3)[:n_controls] + (4,)
    for flags in product((False, True), repeat=n_controls):
        yield gates.GateOp(kind, wires, flags)


def random_instance(rng: random.Random, max_vars: int = 8, max_clauses: int = 12,
                    max_total: int | None = None):
    """Random CNF instance; optionally rejection-sampled to a circuit width."""
    from chaossat import compiler

    while True:
        n = rng.randint(1, max_vars)
        m = rng.randint(1, max_clauses)
        clauses = []
        for _ in range(m):
            card = rng.randint(1, min(3, n))
            variables = rng.sample(range(1, n + 1), card)
            clauses.append(tuple(-v if rng.random() < 0.5 else v for v in variables))
        instance = cnf.CnfInstance(n, tuple(clauses))
        if max_total is None:
            return instance
        if compiler.compile(instance).layout.total <= max_total:
            return instance


@pytest.fixture
def rng():
    return random.Random(20240817)


# acceptance verdict lines, emitted after the run so capture cannot eat them
CRITERION_LINES: list[str] = []


def pytest_terminal_summary(terminalreporter):
    if CRITERION_LINES:
        terminalreporter.section("acceptance criteria")
        for line in sorted(CRITERION_LINES):
            terminalreporter.write_line(line)
