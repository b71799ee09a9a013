"""Parity of the CLI's argv dispatch with the top-level argparse pass.

``cli._parse_args`` hands the rest of an argv that starts with a
subcommand name straight to that subcommand's parser. It must read every
argv as ``cli.build_parser().parse_args`` does: the same namespace, or the
same ``SystemExit`` code with the same stdout (``--help``) and stderr (one
``error:`` line). ``check_parity`` compares the two on one argv and needs
neither pytest nor Hypothesis, so the corpus below also runs under a bare
interpreter:

    PYTHONPATH=src python tests/argv_parity.py [LENGTH]

checks the fixed corpus and every argv of at most LENGTH (default 4)
tokens from ``TOKENS``, and prints the counts.
"""

import contextlib
import io
import itertools
import sys

from hklattice import cli

# argv that exercise argparse's corners: help after a subcommand, "--",
# an abbreviated option, a value that starts with a minus sign, no argv, an
# unknown command, a repeated option, a missing or stray value
CORPUS = [
    [],
    ["-h"],
    ["--help"],
    ["--he"],
    ["--json"],
    ["bogus"],
    ["bogus", "-h"],
    ["Query"],
    ["query"],
    ["verify"],
    ["query", "-h"],
    ["query", "--help"],
    ["query", "--he"],
    ["query", "membership", "-h"],
    ["query", "membership", "--payload", "{}", "--help"],
    ["verify", "blowup", "-h"],
    ["verify", "-h", "bogus"],
    ["sample", "--help"],
    ["search", "jacobian-combos", "-h"],
    ["--", "query", "membership", "--payload", "{}"],
    ["query", "--", "membership", "--payload", "{}"],
    ["query", "membership", "--", "--payload", "{}"],
    ["query", "membership", "--payload", "{}", "--"],
    ["query", "membership", "--payload", "--", "{}"],
    ["query", "membership", "--pay", "{}"],
    ["query", "membership", "--pay={}"],
    ["query", "membership", "--js", "--payload", "{}"],
    ["query", "membership", "--payload=-1e+16"],
    ["query", "membership", "--payload", "-1e+16"],
    ["query", "membership", "--payload", "-1e+16,2"],
    ["query", "membership", "--payload"],
    ["query", "membership", "--payload", "{}", "extra"],
    ["query", "membership", "--payload", "{}", "-x"],
    ["query", "membership", "--payload", "{}", "--payload", "[]"],
    ["query", "membership", "--payload", "{}", "--json", "--out", "report.json"],
    ["query", "vlambda", "--seed", "3", "--payload", "{}", "--seed", "-4"],
    ["search", "jacobian-combos", "--multipliers", "-3,2"],
    ["search", "jacobian-combos", "--multipliers=-3,2"],
    ["search", "jacobian-combos", "--multipliers", "-3"],
    ["search", "jacobian-combos", "--multipliers", "3,2", "--bound", "-1"],
    ["search", "jacobian-combos", "--mult", "3", "--b", "2"],
    ["search", "jacobian", "--multipliers", "3"],
    ["sample", "exceptional", "--count", "2", "--count", "3"],
    ["sample", "exceptional", "--count", "1_0"],
    ["sample", "exceptional", "--count", "٣"],
    ["sample", "polarization-odd", "--seed", "-1000000", "--json"],
    ["verify", "all", "--trials", "2", "--convention", "paper", "--json"],
    ["verify", "all", "--trials", "x"],
    ["verify", "blowup", "--seed", "1", "--seed", "2"],
    ["verify", "blowup", "--text"],
    ["verify", "blowup", "--convention"],
    ["verify", "", "--trials", "2"],
    ["verify", "blowup", "blowup"],
]

# the alphabet of the product corpus: the four commands, a kind of each,
# options with and without values, and the corner tokens of CORPUS
TOKENS = [
    "verify",
    "query",
    "sample",
    "search",
    "blowup",
    "membership",
    "exceptional",
    "jacobian-combos",
    "--json",
    "--seed",
    "-1",
    "--payload",
    "{}",
    "-h",
    "--",
    "--pay",
    "--payload=-1e+16",
    "-3,2",
]


def outcome(parse, argv):
    """What ``parse(argv)`` gives: ``("namespace", vars)`` or ``("exit",
    code, stdout, stderr)``."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            return ("namespace", vars(parse(list(argv))))
        except SystemExit as exc:
            return ("exit", exc.code, out.getvalue(), err.getvalue())


def check_parity(argv):
    """Raise ``AssertionError`` unless the dispatch reads argv as the
    top-level parser does; return the common outcome."""
    fast = outcome(cli._parse_args, argv)
    slow = outcome(cli.build_parser().parse_args, argv)
    assert fast == slow, (argv, fast, slow)
    return fast


def product_corpus(length):
    """Every argv of at most ``length`` tokens from ``TOKENS``."""
    for n in range(length + 1):
        for argv in itertools.product(TOKENS, repeat=n):
            yield list(argv)


def main(length=4):
    for argv in CORPUS:
        check_parity(argv)
    kinds = {"namespace": 0, "exit": 0}
    for argv in product_corpus(length):
        kinds[check_parity(argv)[0]] += 1
    print(
        f"python {sys.version.split()[0]}: {len(CORPUS)} corpus argv and "
        f"{sum(kinds.values())} product argv (length <= {length}) agree; "
        f"{kinds['namespace']} parse, {kinds['exit']} exit"
    )


if __name__ == "__main__":
    main(*map(int, sys.argv[1:]))
