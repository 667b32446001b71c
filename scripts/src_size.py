#!/usr/bin/env python3
"""Size of the `hypmin` package, module by module.

For each source tree given (a directory holding the `hypmin` package; by
default this repository's `src`), this prints one row per `hypmin/*.py`:
its lines, its parameters with a default value (of every `def`, method
and `lambda`) and its fields with a default value (the annotated class
attributes given a value, as dataclass and NamedTuple fields are), both
counted with `ast`, then a total row.  Both counts are settable values a
caller may leave out.  To compare two commits, check both out and give
both `src` directories.

    python scripts/src_size.py [SRC ...]
"""

import argparse
import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"


def defaults(source: str) -> int:
    """The number of parameters with a default value in a module's source."""
    count = 0
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            count += len(node.args.defaults) + sum(d is not None for d in node.args.kw_defaults)
    return count


def fields(source: str) -> int:
    """The number of annotated class attributes with a value in a module's source."""
    return sum(
        isinstance(stmt, ast.AnnAssign) and stmt.value is not None
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.ClassDef)
        for stmt in node.body
    )


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("src", nargs="*", type=Path, default=[SRC], help="source trees (default: this repository's src)")
    args = ap.parse_args(argv)
    for src in args.src:
        modules = sorted((src / "hypmin").glob("*.py"))
        if not modules:
            ap.error(f"no hypmin package under {src}")
        print(src)
        print(f"{'lines':>7s} {'defaults':>8s} {'fields':>6s}  module")
        totals = [0, 0, 0]
        for path in modules:
            text = path.read_text(encoding="utf-8")
            row = (len(text.splitlines()), defaults(text), fields(text))
            print(f"{row[0]:7d} {row[1]:8d} {row[2]:6d}  {path.name}")
            totals = [t + n for t, n in zip(totals, row)]
        print(f"{totals[0]:7d} {totals[1]:8d} {totals[2]:6d}  total")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
