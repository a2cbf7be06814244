"""Run every recipe under the first command that accepts its kind, then the
distance search on fig11.

Usage::

    PYTHONPATH=src python tools/every_recipe.py OUT [--max-points 2] \
        [--threads 1]

Each recipe runs in its own ``python -W error::RuntimeWarning -m fsoqkd.cli``
process, so a floating-point overflow or underflow on any path fails it, as
does a non-zero exit.  Recipe outputs go to ``OUT/recipes``.  No recipe's
first command is ``optimal-distance``, so the distance search runs after
them on fig11, whose re30cm item has secondary dips, into
``OUT/distance-search``.  A recipe added later is covered without an edit.
"""

from __future__ import annotations

import argparse
import subprocess
import sys
from pathlib import Path

from fsoqkd.cli import _KIND_FOR_COMMAND
from fsoqkd.recipes import build_recipe, recipe_names


def runs() -> list[tuple[str, str, str]]:
    """(command, recipe, output subdirectory) of each CLI run, in order."""
    out = []
    for name in recipe_names():
        kind = build_recipe(name).kind
        command = next(c for c, kinds in _KIND_FOR_COMMAND.items() if kind in kinds)
        out.append((command, name, "recipes"))
    out.append(("optimal-distance", "fig11", "distance-search"))
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("out", help="output directory")
    parser.add_argument("--max-points", type=int, default=0,
                        help="cap sweep grid sizes, at least 2 (default: full size)")
    parser.add_argument("--threads", type=int, default=1, help="--threads of each run")
    args = parser.parse_args(argv)
    for command, name, subdir in runs():
        print(name, command, "threads", args.threads, flush=True)
        subprocess.run([sys.executable, "-W", "error::RuntimeWarning", "-m", "fsoqkd.cli",
                        command, "--recipe", name, "--max-points", str(args.max_points),
                        "--threads", str(args.threads),
                        "--out", str(Path(args.out) / subdir)], check=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
