"""Command-line fuzzer: argv and JSON payloads, drawn valid and one edit
away from valid, run through ``cli.main`` in process.

The payload edit is a ``pytest.mark.parametrize`` axis of
``test_cli_fuzz``, so every edit kind reaches ``cli.main`` in every run;
Hypothesis draws the rest.

Every call ends with exit code 0, 1 or 2 and prints no traceback. Exit 2
prints one ``error:`` line on stderr that is not a bare ``KeyError`` repr;
exit 0 prints JSON; and a ``membership`` or ``divisibility`` answer
re-verifies from its class through the dense forward substitution of
``oracles.solve_left_int_row``. The same draws check that the CLI's argv
dispatch reads each argv as the top-level parser does (``argv_parity``). The work of one draw is bounded: ``--count``
is at most 5, ``--bound`` at most 3, and ``verify`` draws only argv that
argparse rejects before any suite runs.
"""

import contextlib
import copy
import io
import json
import re
from fractions import Fraction
from functools import cache
from math import gcd

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from hklattice import cli
from hklattice.bb_lattice import RANK, H2Class
from hklattice.h4_model import H4Class, default_h4_lattice, sym2_embed
from argv_parity import CORPUS, check_parity, product_corpus
from oracles import pivot_columns, solve_left_int_row

QUERY_KINDS = ("membership", "divisibility", "vlambda", "minimal-search")
SAMPLE_KINDS = ("exceptional", "polarization-odd", "polarization-even")
NAMED = {
    "q": lambda h4: h4.q,
    "two-fifths-q": lambda h4: Fraction(2, 5) * h4.q,
    "v0": lambda h4: h4.v0,
    "c2": lambda h4: 3 * (Fraction(2, 5) * h4.q),
}

_small = st.integers(-3, 3)
_vector = st.one_of(
    # on the first hyperbolic pair and the exceptional class: square 2xy - 2d^2 > 0
    st.builds(
        lambda x, y, d: [x, y] + [0] * (RANK - 3) + [d],
        st.integers(1, 3), st.integers(2, 4), st.integers(-1, 1),
    ),
    st.lists(_small, min_size=RANK, max_size=RANK),
)
_monomial = st.builds(
    lambda i, j: f"({min(i, j)},{max(i, j)})", st.integers(0, RANK - 1), st.integers(0, RANK - 1)
)
_coefficient = st.one_of(_small, st.sampled_from(["1/2", "-3/10", "5", "2/4"]))
# a key no kind allows, or one that another kind allows
_stray_key = st.sampled_from(
    ["extra", "Named", "lambda", "picard", "named", "class", "plus_two_fifths_q"]
)
# argv values that are not integers to ``cli._integer``
_not_integer = st.sampled_from(["x", "1.5", "1_0", "", "+1", "٣", "1e3"])
PAYLOAD_EDITS = ("none", "drop", "repeat", "stray", "inexact", "shape", "kind")


def _valid_payload(kind):
    """(key, value) pairs of a well-formed payload of the kind."""
    if kind in ("membership", "divisibility"):
        return st.one_of(
            st.tuples(st.tuples(st.just("named"), st.sampled_from(sorted(NAMED)))),
            st.tuples(
                st.tuples(st.just("class"), st.dictionaries(_monomial, _coefficient, max_size=3))
            ),
            st.tuples(st.tuples(st.just("lambda0"), _vector)),
            st.tuples(
                st.tuples(st.just("lambda0"), _vector),
                st.tuples(st.just("plus_two_fifths_q"), st.booleans()),
            ),
        ).map(list)
    if kind == "vlambda":
        return st.tuples(st.tuples(st.just("lambda0"), _vector)).map(list)
    return st.one_of(
        st.tuples(st.tuples(st.just("lambda0"), _vector)).map(list),
        st.builds(
            lambda l0, more: [("lambda0", l0), ("picard", [l0, *more])],
            _vector,
            st.lists(_vector, max_size=1),
        ),
    )


def _integer_paths(value, path=()):
    """Paths to the JSON integers (not booleans) inside a payload value."""
    if isinstance(value, bool):
        return []
    if isinstance(value, int):
        return [path]
    if isinstance(value, list):
        return [p for i, v in enumerate(value) for p in _integer_paths(v, (*path, i))]
    if isinstance(value, dict):
        return [p for k, v in sorted(value.items()) for p in _integer_paths(v, (*path, k))]
    return []


def _array_paths(value, path=()):
    """Paths to the JSON arrays inside a payload value, itself included."""
    if not isinstance(value, list):
        return []
    return [path, *(p for i, v in enumerate(value) for p in _array_paths(v, (*path, i)))]


@st.composite
def _payload_edit(draw, pairs, kind, edit):
    """(kind, pairs) after the edit of ``PAYLOAD_EDITS``: none, a dropped,
    repeated or stray key, a float or a bool where an integer belongs, a
    string, an object or a number where an array belongs, or another kind.
    A payload that offers the edit no place is not drawn."""
    # [key, value] lists, so that a path from the pairs reaches any value
    pairs = [list(pair) for pair in copy.deepcopy(pairs)]
    if edit == "drop":
        del pairs[draw(st.integers(0, len(pairs) - 1))]
    elif edit == "repeat":
        key, value = pairs[draw(st.integers(0, len(pairs) - 1))]
        pairs.insert(draw(st.integers(0, len(pairs))), (key, draw(st.sampled_from([value, 0]))))
    elif edit == "stray":
        pairs.append((draw(_stray_key), draw(st.one_of(_small, _vector, st.booleans()))))
    elif edit in ("inexact", "shape"):
        find = _integer_paths if edit == "inexact" else _array_paths
        paths = [(i, 1, *p) for i, (_, v) in enumerate(pairs) for p in find(v)]
        assume(paths)
        path = draw(st.sampled_from(paths))
        holder = pairs
        for step in path[:-1]:
            holder = holder[step]
        n = holder[path[-1]]
        bad = [float(n), n + 0.5, True, False] if edit == "inexact" else ["abc", {"a": 1}, 5, None]
        holder[path[-1]] = draw(st.sampled_from(bad))
    elif edit == "kind":
        kind = draw(st.sampled_from([k for k in QUERY_KINDS if k != kind]))
    return kind, pairs


def _json_object(pairs) -> str:
    """The JSON text of an object, keeping a repeated key as written."""
    return "{" + ", ".join(f"{json.dumps(k)}: {json.dumps(v)}" for k, v in pairs) + "}"


@st.composite
def _query(draw, edit):
    kind = draw(st.sampled_from(QUERY_KINDS))
    kind, pairs = draw(_payload_edit(draw(_valid_payload(kind)), kind, edit))
    json_flag = ["--json"] if draw(st.booleans()) else []
    return ["query", kind, "--payload", _json_object(pairs), *json_flag], (kind, pairs)


@st.composite
def _argv_edit(draw, argv, option_values):
    """argv after at most one edit: a dropped or repeated token, a value
    that is not an integer, a stray option, or a misspelt kind."""
    argv = list(argv)
    edits = ["drop", "repeat", "value", "stray", "kind"]
    edit = draw(st.one_of(st.just("none"), st.sampled_from(edits)))
    if edit == "drop":
        del argv[draw(st.integers(0, len(argv) - 1))]
    elif edit == "repeat":
        i = draw(st.integers(0, len(argv) - 1))
        argv.insert(i, argv[i])
    elif edit == "value" and option_values:
        i = argv.index(draw(st.sampled_from(option_values))) + 1
        argv[i] = draw(_not_integer)
    elif edit == "stray":
        stray = draw(st.sampled_from(["--trials", "--text", "-x", "--payload"]))
        argv.insert(draw(st.integers(2, len(argv))), stray)
    elif edit == "kind":
        argv[1] = draw(st.sampled_from(["polarization", "jacobian", "Exceptional", "all"]))
    return argv


@st.composite
def _sample(draw):
    argv = ["sample", draw(st.sampled_from(SAMPLE_KINDS)), "--count", str(draw(st.integers(-1, 5)))]
    argv += ["--seed", str(draw(st.integers(-(10**6), 10**6)))]
    argv += ["--json"] if draw(st.booleans()) else []
    return draw(_argv_edit(argv, ["--count", "--seed"])), None


@st.composite
def _search(draw):
    mults = draw(st.lists(st.integers(-6, 6), min_size=1, max_size=3))
    argv = ["search", "jacobian-combos", "--multipliers", ",".join(map(str, mults))]
    argv += ["--bound", str(draw(st.integers(0, 3)))]
    return draw(_argv_edit(argv, ["--multipliers", "--bound"])), None


@st.composite
def _verify_rejected(draw):
    """A verify argv that argparse rejects: every edit is one it refuses."""
    argv = ["verify", draw(st.sampled_from(cli.SUITES)), "--trials", "2", "--seed", "1"]
    edit = draw(st.sampled_from(["suite", "trials", "seed", "convention", "stray", "missing"]))
    if edit == "suite":
        argv[1] = draw(st.sampled_from(["bogus", "All", "h4", ""]))
    elif edit in ("trials", "seed"):
        argv[argv.index("--" + edit) + 1] = draw(_not_integer)
    elif edit == "convention":
        argv += ["--convention", draw(st.sampled_from(["Paper", "cubic", ""]))]
    elif edit == "stray":
        stray = draw(st.sampled_from(["--text", "--payload", "--count"]))
        argv.insert(draw(st.integers(2, len(argv))), stray)
    else:
        argv = argv[:1]
    return argv, None


@cache
def _oracle_basis():
    lat = default_h4_lattice().lattice
    rows = [list(r) for r in lat.int_basis]
    return lat.den, rows, pivot_columns(rows)


def _oracle_coords(cls: H4Class):
    """Integer coordinates of cls in the degree-4 lattice, or None outside
    it: den * cls must be integral and in the row span of the HNF basis."""
    den, rows, pivots = _oracle_basis()
    scaled = [den * x for x in cls.num]
    if any(x % cls.den for x in scaled):
        return None
    return solve_left_int_row(rows, pivots, [x // cls.den for x in scaled])


def _class_of(payload: dict) -> H4Class:
    h4 = default_h4_lattice()
    if "named" in payload:
        return NAMED[payload["named"]](h4)
    if "class" in payload:
        return H4Class.from_json(payload["class"])
    l0 = H2Class(payload["lambda0"])
    cls = sym2_embed(l0, l0)
    return cls + Fraction(2, 5) * h4.q if payload.get("plus_two_fifths_q") else cls


def _reverify(kind: str, payload: dict, answer: dict) -> None:
    x = _oracle_coords(_class_of(payload))
    if kind == "membership":
        assert answer["member"] is (x is not None)
        if x is not None and any(x):
            assert answer["divisibility"] == gcd(*x)
        else:
            assert "divisibility" not in answer
    else:
        assert x is not None and any(x)
        assert answer == {"divisibility": gcd(*x)}


def _cases(edit):
    """(argv, query) pairs, a query argv carrying the payload edit ``edit``:
    the query is (kind, payload pairs) for a query argv, else None."""
    return st.one_of(
        _query(edit),
        _sample(),
        _search(),
        _verify_rejected(),
        st.sampled_from([[], ["bogus"], ["--json"], ["query"]]).map(lambda a: (a, None)),
    )


@pytest.mark.parametrize("edit", PAYLOAD_EDITS)
@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_cli_fuzz(edit, data):
    argv, query = data.draw(_cases(edit), label="case")
    out, err = io.StringIO(), io.StringIO()
    argparse_exit = False
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code, argparse_exit = exc.code, True
    out, err = out.getvalue(), err.getvalue()
    assert code in (0, 1, 2)
    assert "Traceback" not in out + err
    if argv[:1] == ["verify"]:
        assert argparse_exit and code == 2
    if code == 2:
        assert out == ""
        lines = err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:")
        assert not re.fullmatch(r"error: '[^']*'", lines[0]), lines[0]
        # "abc" or {"a": 1} where an array belongs is refused whole, not
        # through its first character or key
        assert "got 'a'" not in lines[0], lines[0]
    if code == 0:
        answer = json.loads(out)
        if query and query[0] in ("membership", "divisibility"):
            _reverify(query[0], dict(query[1]), answer)


_L0 = [1] + [0] * (RANK - 1)


@pytest.mark.parametrize(
    "kind, payload, message",
    [
        ("vlambda", {"lambda0": "abc"}, "expected an array of integers, got 'abc'"),
        ("membership", {"lambda0": {"a": 1}}, "expected an array of integers, got {'a': 1}"),
        ("vlambda", {"lambda0": 5}, "expected an array of integers, got 5"),
        ("minimal-search", {"lambda0": _L0, "picard": "x"},
         "expected an array of integer arrays, got 'x'"),
        ("minimal-search", {"lambda0": _L0, "picard": ["xy"]},
         "expected an array of integers, got 'xy'"),
    ],
    ids=["text", "object", "number", "picard-text", "picard-row-text"],
)
def test_an_array_given_as_a_string_object_or_number_is_refused_whole(kind, payload, message):
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = cli.main(["query", kind, "--payload", json.dumps(payload)])
    assert code == 2
    assert err.getvalue() == f"error: {message}\n"


@settings(max_examples=300, deadline=None)
@given(case=st.sampled_from(PAYLOAD_EDITS).flatmap(_cases))
def test_dispatch_reads_argv_as_the_top_level_parser(case):
    check_parity(case[0])


def test_dispatch_parity_on_the_fixed_and_product_corpora():
    for argv in CORPUS:
        check_parity(argv)
    for argv in product_corpus(3):
        check_parity(argv)
