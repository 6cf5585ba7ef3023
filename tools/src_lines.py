#!/usr/bin/env python3
"""Net ``src/`` size as a measured number: code lines per package.

A *code line* is a physical line that carries at least one token other
than a comment or a docstring — so deleting comments or docstrings, or
reflowing them, moves nothing (the simplicity guide does not count that
as a reduction), while a statement wrapped over three lines counts
three.  Prints one row per package under ``src/repro`` (top-level
modules count as ``repro``) and a total; with ``--against`` also the
parent's count and the delta.

Usage::

    python tools/src_lines.py
    python tools/src_lines.py --against HEAD~1
    python tools/src_lines.py --against /root/scratch/parent src/repro/sim/node.py
"""

from __future__ import annotations

import argparse
import ast
import io
import subprocess
import sys
import tempfile
import tokenize
from collections import defaultdict
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent

_NOT_CODE = {
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.NEWLINE,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENCODING,
    tokenize.ENDMARKER,
}


def _docstring_starts(source: str) -> set[tuple[int, int]]:
    """``(line, column)`` of every module, class and function docstring."""
    starts = set()
    for node in ast.walk(ast.parse(source)):
        if not isinstance(
            node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
        ):
            continue
        first = node.body[0] if node.body else None
        if (
            isinstance(first, ast.Expr)
            and isinstance(first.value, ast.Constant)
            and isinstance(first.value.value, str)
        ):
            starts.add((first.lineno, first.col_offset))
    return starts


def code_lines(source: str) -> int:
    """Physical lines of ``source`` carrying a non-comment,
    non-docstring token."""
    docstrings = _docstring_starts(source)
    lines: set[int] = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type in _NOT_CODE:
            continue
        if token.type == tokenize.STRING and token.start in docstrings:
            continue
        lines.update(range(token.start[0], token.end[0] + 1))
    return len(lines)


def count_tree(root: Path, paths: list[str]) -> dict[str, int]:
    """Code lines per package for the ``*.py`` files under ``paths``
    (files or directories, relative to ``root``)."""
    totals: dict[str, int] = defaultdict(int)
    for relative in paths:
        target = root / relative
        files = sorted(target.rglob("*.py")) if target.is_dir() else [target]
        for file in files:
            if not file.exists():
                continue  # a module the other side does not have
            parts = file.relative_to(root).parts
            # src/repro/<package>/... -> "repro.<package>"; anything
            # shallower is keyed by its directory.
            package = ".".join(parts[1:3]) if len(parts) > 3 else ".".join(parts[1:-1])
            totals[package or parts[0]] += code_lines(file.read_text(encoding="utf-8"))
    return dict(totals)


def materialize(against: str, scratch: Path) -> Path:
    """``against`` as a directory: itself if it is one, else that git
    revision's ``src/`` exported into ``scratch``."""
    if Path(against).is_dir():
        return Path(against)
    archive = subprocess.run(
        ["git", "archive", "--format=tar", against, "src"],
        cwd=REPO_ROOT,
        capture_output=True,
        check=True,
    )
    subprocess.run(["tar", "-x", "-C", str(scratch)], input=archive.stdout, check=True)
    return scratch


def render(now: dict[str, int], before: dict[str, int] | None) -> str:
    rows = sorted(set(now) | set(before or {}))
    width = max(len(row) for row in [*rows, "total"])
    out = []
    for row in [*rows, "total"]:
        count = sum(now.values()) if row == "total" else now.get(row, 0)
        line = f"{row:<{width}}  {count:>6}"
        if before is not None:
            old = sum(before.values()) if row == "total" else before.get(row, 0)
            line += f"  {old:>6}  {count - old:>+6}"
        out.append(line)
    return "\n".join(out)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "paths", nargs="*", default=["src"], help="files or directories (default: src)"
    )
    parser.add_argument("--against", help="parent checkout directory or git revision to diff with")
    args = parser.parse_args(argv)
    now = count_tree(REPO_ROOT, args.paths)
    before = None
    if args.against:
        with tempfile.TemporaryDirectory() as scratch:
            before = count_tree(materialize(args.against, Path(scratch)), args.paths)
    print(render(now, before))
    return 0


if __name__ == "__main__":
    sys.exit(main())
