#!/usr/bin/env python3
"""Count the code lines of the C++ sources: the one counter for src/ sizes.

A code line is a line of a .h or .cpp file that is neither blank nor a
`//` comment line (after leading whitespace). Block comments and trailing
comments are not treated specially.

  count_code_lines.py [--tools]
      Prints src/'s count; with --tools, tools/'s count on a second line.

Run it from anywhere: paths are taken relative to the repository root.
Only the Python standard library is used.
"""

import argparse
import pathlib

ROOT = pathlib.Path(__file__).resolve().parent.parent


def count_code_lines(directory):
    total = 0
    for path in sorted(directory.rglob("*")):
        if path.suffix not in (".h", ".cpp") or not path.is_file():
            continue
        for line in path.read_text(encoding="utf-8").splitlines():
            stripped = line.strip()
            if stripped and not stripped.startswith("//"):
                total += 1
    return total


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--tools", action="store_true", help="also count tools/")
    args = parser.parse_args()
    names = ["src"] + (["tools"] if args.tools else [])
    for name in names:
        print(f"{name}/: {count_code_lines(ROOT / name)} code lines")


if __name__ == "__main__":
    main()
