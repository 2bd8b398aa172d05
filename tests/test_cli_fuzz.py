"""Random argv and DIMACS bytes through the CLI: every run ends cleanly.

A clean end is one of three: exit 0, 10 or 20 with nothing on stderr;
exit 1 with exactly one ``error: `` line on stderr and nothing on stdout;
or exit 2 from argparse's own usage error.  No run may print a
traceback, numpy's ``np.`` or ``gufunc`` text, or an exception repr.
"""

import json
import math
import re

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from chaossat import cli
from test_cli import SAT_TEXT, UNSAT_TEXT

LEAKS = re.compile(r"Traceback|np\.|gufunc|\w+(Error|Exception|Warning)\(|<class ")

# values every flag is drawn from beside its own valid ones
JUNK = ("nan", "inf", "-inf", "1e400", "-0", "1e-320", "", "abc", "1/0",
        "1" + "0" * 400 + "/1", "9" * 401)
# valid values per flag.  With 1e-3 <= dt <= 5e-3, t_final <= 20 and Re gamma
# >= 0.5, each probe grid these pools build has at most 2e4 points; Re gamma
# 1e-4 asks for 2e7 or more, past the probe's 1e7, so that grid is refused unbuilt
FLAGS = {
    "amplify": {
        "--q2": ("0", "1/1024", "0.5", "1", "3/4"),
        "--a": ("3.71", "4", "0", "2.5"),
        "--steps": ("0", "1", "20", "1000", "-1"),
        "--threshold": ("0.5", "0.9", "0", "1"),
    },
    "lindblad": {
        "--q": ("0", "0.03125", "0.5", "0.866", "1"),
        "--gamma-re": ("1", "0.5", "2", "-1", "1e308", "1e-4", "1.4e3", "1e4"),
        "--gamma-im": ("0", "1", "-3", "1e200"),
        "--e0": ("0", "1", "2", "-3"),
        "--e1": ("0", "2", "5"),
        "--t-final": ("1", "5", "20"),
        "--dt": ("1e-3", "2e-3", "5e-3"),
    },
    "solve": {
        "--engine": ("chaos", "lindblad", "both"),
        "--a": ("3.71", "4", "0"),
        "--steps": ("0", "4", "1000", "-1"),
        "--gamma-re": ("1", "0.5", "2", "-1", "1e308", "1e-4", "1.4e3"),
        "--gamma-im": ("0", "1", "-3", "1e200"),
    },
}


def run(capsys, argv):
    try:
        code = cli.main(argv)
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def assert_clean(code, out, err):
    assert not LEAKS.search(err), err
    if code == 2:
        assert err.startswith("usage: chaossat") and "error: " in err, err
    elif code == cli.EXIT_ERROR:
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1, err
    else:
        assert code in (0, cli.EXIT_SAT, cli.EXIT_UNSAT), (code, err)
        assert err == ""
        json.loads(out)  # the whole stdout is one JSON document


@st.composite
def argvs(draw):
    """One command's argv, each flag left out, valid or junk, as --flag=value.

    A flag is junk one time in five, so that most runs get past argparse.
    """
    command = draw(st.sampled_from(sorted(FLAGS)))
    argv = [command]
    if command == "solve":
        argv.append(draw(st.sampled_from(("sat", "unsat"))))
    for flag, valid in FLAGS[command].items():
        pool = draw(st.sampled_from((None, valid, valid, valid, JUNK)))
        if pool is not None:
            argv.append(f"{flag}={draw(st.sampled_from(pool))}")
    return argv


class TestArgvFuzz:
    @settings(max_examples=200, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(argv=argvs())
    # rare draws, each reaching a different refusal: a period past the float
    # range (refused at q > 0 too, where the run never reads it), a ratio past
    # it, a grid of 1e8 steps on an UNSAT file and an unstable RK4 step
    @example(argv=["lindblad", "--q=0", "--e1=" + "9" * 401])
    @example(argv=["lindblad", "--q=0", "--e1=1" + "0" * 400])
    @example(argv=["lindblad", "--q=0.5", "--e0=-" + "9" * 401])
    @example(argv=["amplify", "--q2=" + "1" + "0" * 400 + "/1", "--steps=5"])
    @example(argv=["solve", "unsat", "--engine=lindblad", "--gamma-re=1e-4"])
    @example(argv=["lindblad", "--q=0.5", "--gamma-re=1e4"])
    def test_every_run_ends_cleanly(self, capsys, tmp_path, argv):
        if argv[0] == "solve":
            path = tmp_path / f"{argv[1]}.cnf"
            path.write_text(SAT_TEXT if argv[1] == "sat" else UNSAT_TEXT)
            argv = [argv[0], str(path), *argv[2:]]
        assert_clean(*run(capsys, argv))


# the one error a stable RK4 step can still reach after the oracle: the coherence
# outlasts the population (|R_c|^2 > R_p1) and a state on the grid loses positivity
POSITIVITY = re.compile(r"error: state invariant violated at t=\S+: min eigenvalue \S+\n")


class TestSolveProbeFuzz:
    @settings(max_examples=150, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(
        n=st.integers(1, 6),
        clauses=st.lists(st.lists(st.integers(-6, 6).filter(bool), min_size=1, max_size=3),
                         min_size=1, max_size=5),
        engine=st.sampled_from(("lindblad", "both")),
        log_re=st.floats(-5.0, 6.0),
        log_im=st.none() | st.floats(-2.0, 4.0),
        negative_im=st.booleans(),
    )
    # Re gamma 1200 runs on 1001 points of its horizon and decides; Im gamma 3000
    # is an unstable coherence step, refused before the oracle
    @example(n=2, clauses=[[1, 2]], engine="lindblad", log_re=math.log10(1200), log_im=None,
             negative_im=False)
    @example(n=2, clauses=[[1, 2]], engine="lindblad", log_re=0.0, log_im=math.log10(3000),
             negative_im=False)
    def test_exit_1_only_before_the_oracle(self, capsys, monkeypatch, tmp_path, n, clauses,
                                           engine, log_re, log_im, negative_im):
        # whenever solve exits 1, the oracle never ran, or the formula is a tautology
        # the probe cannot decide, or a state on the grid lost positivity
        calls = []
        count_satisfying = cli.cnf.count_satisfying

        def oracle(instance):
            calls.append(instance)
            return count_satisfying(instance)

        monkeypatch.setattr(cli.cnf, "count_satisfying", oracle)
        variables = {abs(lit) for clause in clauses for lit in clause}
        path = tmp_path / "random.cnf"
        path.write_text(f"p cnf {max(n, *variables)} {len(clauses)}\n"
                        + "".join(" ".join(map(str, clause)) + " 0\n" for clause in clauses))
        im = 0.0 if log_im is None else (-1) ** negative_im * 10.0**log_im
        argv = ["solve", str(path), f"--engine={engine}", f"--gamma-re={10.0**log_re!r}",
                f"--gamma-im={im!r}"]
        code, out, err = run(capsys, argv)
        if code == cli.EXIT_ERROR:
            unsupported = out and json.loads(out).get("lindblad", {}).get("decision")
            assert not calls or unsupported == "unsupported" or POSITIVITY.fullmatch(err), err


# header variable counts past the oracle's limit of 24, past the compiler's of
# 2^16 and far beyond: compile builds the 4096-variable circuit, and every other
# run is refused from the header
BIG_N = (25, 4096, 65537, 10**9)


@st.composite
def dimacs_bytes(draw):
    """Random bytes, or a valid file of n <= 12 variables with a few mutations."""
    if draw(st.integers(0, 4)) == 0:
        return draw(st.binary(max_size=200))
    n = draw(st.integers(1, 12))
    clauses = draw(st.lists(
        st.lists(st.integers(-n, n).filter(bool), min_size=1, max_size=3, unique_by=abs),
        min_size=1, max_size=6,
    ))
    tokens = [str(lit) for clause in clauses for lit in (*clause, 0)]
    header = [b"p", b"cnf", str(n).encode(), str(len(clauses)).encode()]
    trailer = b""
    for _ in range(draw(st.integers(0, 3))):
        mutation = draw(st.sampled_from(
            ("drop", "duplicate", "zero", "past-n", "trailer", "non-utf8", "not-dimacs-int",
             "big-n")
        ))
        at = draw(st.integers(0, len(tokens)))
        if mutation == "drop" and tokens:
            del tokens[min(at, len(tokens) - 1)]
        elif mutation == "duplicate" and tokens:
            tokens.insert(at, tokens[min(at, len(tokens) - 1)])
        elif mutation == "zero":
            tokens.insert(at, "0")
        elif mutation == "past-n":
            tokens.insert(at, str(draw(st.sampled_from((1, -1))) * draw(st.integers(n + 1, n + 3))))
        elif mutation == "trailer":
            trailer = b"%\n0\n"
        elif mutation == "non-utf8":
            # bytes 0xff, 0xc3 0x28 and 0xe9, none of them valid UTF-8
            tokens.insert(at, draw(st.sampled_from(("\udcff", "\udcc3(", "\udce9"))))
        elif mutation == "not-dimacs-int":
            # int() reads each of these as a number; a DIMACS file may not hold them
            tokens.insert(at, draw(st.sampled_from(("+1", "1_0", "\u0661", "-\u0662"))))
        else:
            header[2] = str(draw(st.sampled_from(BIG_N))).encode()
    body = " ".join(tokens).encode("utf-8", "surrogateescape")
    return b" ".join(header) + b"\n" + body + b"\n" + trailer


class TestDimacsFuzz:
    @settings(max_examples=200, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=dimacs_bytes(),
           command=st.sampled_from((["oracle"], ["compile"], ["simulate"],
                                    ["solve", "--engine=chaos"], ["solve", "--engine=both"])))
    @example(data=b"p cnf 2 1\n1 \xff 2 0\n", command=["oracle"])
    @example(data=b"p cnf 2 1\n1 \xff 2 0\n", command=["compile"])
    @example(data=b"p cnf 2 1\n1 \xff 2 0\n", command=["simulate"])
    @example(data=b"p cnf 2 1\n1 \xff 2 0\n", command=["solve", "--engine=both"])
    def test_every_run_ends_cleanly(self, capsys, tmp_path, data, command):
        # solve --engine lindblad alone is left out: on a tautology it reports
        # "unsupported" and exits 1 without an error line, by design
        path = tmp_path / "fuzz.cnf"
        path.write_bytes(data)
        argv = [command[0], str(path), *command[1:]]
        code, out, err = run(capsys, argv)
        assert code != 2, err
        assert_clean(code, out, err)
        try:
            data.decode()
        except UnicodeDecodeError as exc:  # the reader names the first bad byte's line
            assert err.startswith("error: line ")
            assert err.endswith(f": invalid UTF-8 byte 0x{data[exc.start]:02x}\n"), err
