"""Line coverage of the package, with the standard library only.

    PYTHONPATH=src python tests/line_coverage.py tier1 [PYTEST_ARGS...]
    PYTHONPATH=src python tests/line_coverage.py verify [SEED]

Run from the root of the repository, by hand: the name keeps pytest from
collecting it. ``tier1`` runs the Tier-1 suite in this process (``pytest
-q --continue-on-collection-errors`` plus PYTEST_ARGS); ``verify`` runs
``hklattice verify all --seed SEED --json`` (default seed 7) with its
report discarded. Either way ``sys.settrace`` (and ``threading.settrace``)
records every line of ``src/hklattice`` that runs, and the script prints
each executable line that did not, as ``path:line: text``, then one count
line per module and the total.

The executable lines of a module are the line starts of its compiled code
objects (``dis.findlinestarts``, as the standard ``trace`` module reads
them), less the first instruction of each function, which carries the
``def`` (or first decorator) line: a call reports the body's lines, and the
``def`` line runs in the enclosing code when the function is made. Lines
run only in a child process (the tests that start ``python -m hklattice``
or a benchmark worker) count as unrun. Under the tracer Tier-1 takes about
three times as long as without it.
"""

from __future__ import annotations

import contextlib
import dis
import io
import sys
import threading
import types
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "hklattice"


def executable_lines(path: Path) -> set[int]:
    """The line numbers of path that some instruction starts."""
    code = compile(path.read_text(), str(path), "exec")
    lines = set()
    stack = [(code, True)]
    while stack:
        co, is_module = stack.pop()
        for offset, line in dis.findlinestarts(co):
            if line and (is_module or offset > 0 or line != co.co_firstlineno):
                lines.add(line)
        stack += [(c, False) for c in co.co_consts if isinstance(c, types.CodeType)]
    return lines


class LineRecorder:
    """The global trace function: traces the frames of files under
    ``PACKAGE`` line by line and leaves every other frame untraced."""

    def __init__(self):
        self.hits: dict[str, set[int]] = {}
        self._ours: dict[str, set[int] | None] = {}

    def __call__(self, frame, event, arg):
        name = frame.f_code.co_filename
        hits = self._ours.get(name, False)
        if hits is False:
            hits = None
            if Path(name).resolve().is_relative_to(PACKAGE):
                hits = self.hits.setdefault(str(Path(name).resolve()), set())
            self._ours[name] = hits
        if hits is None:
            return None

        def local(frame, event, arg):
            if event == "line":
                hits.add(frame.f_lineno)
            return local

        return local

    @contextlib.contextmanager
    def installed(self):
        threading.settrace(self)
        sys.settrace(self)
        try:
            yield self
        finally:
            sys.settrace(None)
            threading.settrace(None)


def run_tier1(args) -> LineRecorder:
    import pytest

    rec = LineRecorder()
    with rec.installed():
        code = pytest.main(["-q", "--continue-on-collection-errors", *args])
    print(f"pytest exit code {int(code)}")
    return rec


def run_verify(seed: int) -> LineRecorder:
    rec = LineRecorder()
    with rec.installed():
        from hklattice import cli

        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(["verify", "all", "--seed", str(seed), "--json"])
    print(f"verify all --seed {seed} exit code {code}")
    return rec


def report(rec: LineRecorder) -> int:
    """Print the unrun executable lines and the counts; return the number
    unrun."""
    total = unrun = 0
    rows = []
    for path in sorted(PACKAGE.glob("*.py")):
        want = executable_lines(path)
        missing = sorted(want - rec.hits.get(str(path.resolve()), set()))
        text = path.read_text().splitlines()
        rel = path.relative_to(ROOT)
        for line in missing:
            print(f"{rel}:{line}: {text[line - 1].strip()}")
        rows.append(f"{rel}: {len(missing)} of {len(want)} unrun")
        total += len(want)
        unrun += len(missing)
    print("\n".join(rows))
    print(f"total: {unrun} of {total} executable lines unrun")
    return unrun


def main(argv) -> int:
    if not argv or argv[0] not in ("tier1", "verify"):
        print("\n".join(__doc__.strip().splitlines()[2:4]), file=sys.stderr)
        return 2
    if argv[0] == "tier1":
        rec = run_tier1(argv[1:])
    else:
        rec = run_verify(int(argv[1]) if len(argv) > 1 else 7)
    report(rec)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
