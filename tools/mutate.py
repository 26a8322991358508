"""A stdlib mutation runner: does a named pytest subset catch small changes
to chosen functions?

Usage, from the repository root:

    python tools/mutate.py src/graev/norm.py interval_fill norm_dp \\
        --limit 60 -- tests/test_norm.py -k "fill or dp"

It parses the module with ``ast`` and lists, in source order, every
mutation of the named functions (``Class.method`` for a method):

* a comparison flipped between ``<`` and ``<=``, ``>`` and ``>=``, or
  ``==`` and ``!=``;
* ``+`` and ``-`` swapped, in an expression or an augmented assignment;
* a ``range`` bound (its start or stop) moved by one, up or down;
* a ``.numerator`` read swapped with ``.denominator``, and back;
* a ``continue`` or ``break`` dropped;
* an ``if`` branch dropped: its body, or its ``else`` when it has one.

The repository's ``src`` and ``tests`` and the root ``conftest.py`` are
copied once to a temporary directory.  For each mutant in turn, the module
there is rewritten with the mutated function in place of the original (the
rest of the file byte for byte), and the pytest arguments after ``--`` run
in one process, stopping at the first failure, in a session of its own:
whatever that run leaves behind (processes it forked) is killed after it,
and a mutant that signals its whole process group reaches no further.  A
mutant passes when pytest exits 0 after printing its summary; one that
passes survives; one that fails, runs ten times as long as the unmutated copy
plus 10 s, or asks for more than 1 GB of address space is killed.  The unmutated
copy runs first and must pass.  The report lists every survivor with its
line and change, then the score; the exit code is 1 if any mutant
survived.  ``--limit`` runs only the first mutants.
"""

from __future__ import annotations

import argparse
import ast
import copy
import os
import resource
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Iterator

ROOT = Path(__file__).resolve().parent.parent
MEMORY_BYTES = 1 << 30  # a mutant that loops while it allocates fails, not the machine

_FLIPS = {ast.Lt: ast.LtE, ast.LtE: ast.Lt, ast.Gt: ast.GtE, ast.GtE: ast.Gt, ast.Eq: ast.NotEq, ast.NotEq: ast.Eq}
_SIGNS = {ast.Add: ast.Sub, ast.Sub: ast.Add}
_PARTS = {"numerator": "denominator", "denominator": "numerator"}
_SYMBOLS = {
    ast.Lt: "<", ast.LtE: "<=", ast.Gt: ">", ast.GtE: ">=", ast.Eq: "==", ast.NotEq: "!=", ast.Add: "+", ast.Sub: "-"
}


def _find(tree: ast.Module, name: str) -> ast.FunctionDef:
    """The function ``name`` (``Class.method`` for a method) at module level."""
    body: list[ast.stmt] = tree.body
    *owners, last = name.split(".")
    for owner in owners:
        body = next(node.body for node in body if isinstance(node, ast.ClassDef) and node.name == owner)
    for node in body:
        if isinstance(node, ast.FunctionDef) and node.name == last:
            return node
    raise SystemExit(f"no function {name!r} in the module")


def _sites(func: ast.FunctionDef) -> list[tuple[int, str, tuple]]:
    """(index, description, change) of every mutation in ``func``, in source
    order; ``index`` picks the node in ``ast.walk`` order of a copy."""
    nodes = list(enumerate(ast.walk(func)))
    nodes.sort(key=lambda item: (getattr(item[1], "lineno", 0), getattr(item[1], "col_offset", 0)))
    return [site for index, node in nodes for site in _node_sites(index, node)]


def _node_sites(index: int, node: ast.AST) -> Iterator[tuple[int, str, tuple]]:
    line = getattr(node, "lineno", 0)
    if isinstance(node, ast.Compare):
        for k, op in enumerate(node.ops):
            if type(op) in _FLIPS:
                new = _FLIPS[type(op)]
                which = f" (comparison {k + 1})" if len(node.ops) > 1 else ""
                yield index, f"{line}: {_SYMBOLS[type(op)]} -> {_SYMBOLS[new]}{which}", ("compare", k, new)
    elif isinstance(node, (ast.BinOp, ast.AugAssign)) and type(node.op) in _SIGNS:
        new = _SIGNS[type(node.op)]
        yield index, f"{line}: {_SYMBOLS[type(node.op)]} -> {_SYMBOLS[new]}", ("op", new)
    elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "range":
        for k, arg in enumerate(node.args[:2]):  # the start and stop, not the step
            for step in ("+", "-"):
                yield index, f"{line}: range bound {ast.unparse(arg)} {step} 1", ("range", k, step)
    elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load) and node.attr in _PARTS:
        new = _PARTS[node.attr]
        yield index, f"{line}: .{node.attr} -> .{new}", ("attr", new)
    elif isinstance(node, (ast.Continue, ast.Break)):
        yield index, f"{line}: {type(node).__name__.lower()} dropped", ("drop",)
    elif isinstance(node, ast.If):
        yield index, f"{line}: if body dropped", ("if", "body")
        if node.orelse:
            yield index, f"{line}: else branch dropped", ("if", "orelse")


def _apply(func: ast.FunctionDef, index: int, change: tuple) -> ast.FunctionDef:
    """A copy of ``func`` with ``change`` made at its ``index``-th node."""
    mutant = copy.deepcopy(func)
    nodes = list(ast.walk(mutant))
    node = nodes[index]
    kind = change[0]
    if kind == "compare":
        node.ops[change[1]] = change[2]()
    elif kind == "op":
        node.op = change[1]()
    elif kind == "attr":
        node.attr = change[1]
    elif kind == "range":
        op = ast.Add() if change[2] == "+" else ast.Sub()
        node.args[change[1]] = ast.BinOp(left=node.args[change[1]], op=op, right=ast.Constant(1))
    else:
        if kind == "drop":
            replacement = [ast.Pass()]
        elif change[1] == "body":
            replacement = node.orelse or [ast.Pass()]
        else:
            replacement = [ast.If(test=node.test, body=node.body, orelse=[])]
        for parent in nodes:
            for field in ("body", "orelse", "finalbody"):
                block = getattr(parent, field, None)
                if isinstance(block, list) and any(item is node for item in block):
                    at = next(i for i, item in enumerate(block) if item is node)
                    block[at : at + 1] = replacement
    return ast.fix_missing_locations(mutant)


def _source(lines: list[str], func: ast.FunctionDef, mutant: ast.FunctionDef) -> str:
    """The module text with ``func``'s lines replaced by ``mutant`` unparsed."""
    first = min([func.lineno] + [d.lineno for d in func.decorator_list]) - 1
    indent = " " * func.col_offset
    body = "".join(indent + line + "\n" for line in ast.unparse(mutant).splitlines())
    return "".join(lines[:first]) + body + "".join(lines[func.end_lineno :])


def _limit_memory() -> None:
    resource.setrlimit(resource.RLIMIT_AS, (MEMORY_BYTES, MEMORY_BYTES))


def _run(workdir: Path, pytest_args: list[str], timeout: float) -> str:
    """'passed', 'failed' or 'timeout' for the pytest run in ``workdir``."""
    env = dict(os.environ, PYTHONPATH=str(workdir / "src"), PYTHONDONTWRITEBYTECODE="1")
    argv = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *pytest_args]
    # the output goes to a file, not a pipe, so a process the run leaves
    # behind cannot keep this one waiting for the pipe to close
    with tempfile.TemporaryFile() as out:
        with subprocess.Popen(
            argv, cwd=workdir, env=env, stdout=out, stderr=subprocess.STDOUT,
            start_new_session=True, preexec_fn=_limit_memory,
        ) as run:
            try:
                code = run.wait(timeout)
            except subprocess.TimeoutExpired:
                return "timeout"
            finally:
                try:
                    os.killpg(run.pid, signal.SIGKILL)
                except ProcessLookupError:
                    pass  # nothing of the run is left
        out.seek(0)
        summary = out.read().decode(errors="replace").strip().rpartition("\n")[2]
    # pytest's summary must show, or a mutant that ended the run early with
    # status 0 (through os._exit, say) would pass
    return "passed" if code == 0 and " passed" in summary else "failed"


def main(argv: list[str] | None = None) -> int:
    args = list(sys.argv[1:] if argv is None else argv)
    pytest_args = args[args.index("--") + 1 :] if "--" in args else []
    args = args[: args.index("--")] if "--" in args else args
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("module", help="the module to mutate, relative to the repository root")
    parser.add_argument("functions", nargs="+", help="functions to mutate, Class.method for a method")
    parser.add_argument("--limit", type=int, default=None, help="run at most this many mutants")
    opts = parser.parse_args(args)
    if not pytest_args:
        parser.error("give the pytest arguments after --")

    module = Path(opts.module)
    text = (ROOT / module).read_text(encoding="utf-8")
    lines = text.splitlines(keepends=True)
    tree = ast.parse(text)
    mutants = []
    for name in opts.functions:
        func = _find(tree, name)
        for index, what, change in _sites(func):
            mutants.append((f"{module.name}:{what} in {name}", func, index, change))
    mutants = mutants[: opts.limit]

    with tempfile.TemporaryDirectory(prefix="mutate-") as tmp:
        work = Path(tmp)
        shutil.copytree(ROOT / "src", work / "src", ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copytree(ROOT / "tests", work / "tests", ignore=shutil.ignore_patterns("__pycache__"))
        if (ROOT / "conftest.py").exists():
            shutil.copy(ROOT / "conftest.py", work / "conftest.py")
        target = work / module
        start = time.perf_counter()
        if _run(work, pytest_args, 600.0) != "passed":
            print("the unmutated copy fails the tests; nothing to measure", file=sys.stderr)
            return 2
        timeout = 10 * (time.perf_counter() - start) + 10
        survivors = []
        for number, (what, func, index, change) in enumerate(mutants, 1):
            target.write_text(_source(lines, func, _apply(func, index, change)), encoding="utf-8")
            start = time.perf_counter()
            outcome = _run(work, pytest_args, timeout)
            verdict = "SURVIVED" if outcome == "passed" else f"killed ({outcome})"
            print(f"[{number}/{len(mutants)}] {what}: {verdict}, {time.perf_counter() - start:.1f} s", flush=True)
            if outcome == "passed":
                survivors.append(what)
        target.write_text(text, encoding="utf-8")

    print(f"\n{len(mutants) - len(survivors)} of {len(mutants)} mutants killed")
    for what in survivors:
        print(f"survived: {what}")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
