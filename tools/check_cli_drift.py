#!/usr/bin/env python3
"""Check that documented command lines use only flags the binaries list.

For every asim-run / asim2c / asim-serve command line in README.md,
docs/*.md, the CMake smoke tests (CMakeLists.txt) and
.github/workflows/ci.yml, each flag on the line must be one that the
binary's --help lists. Backslash continuations are joined first, and
each CMake add_test(...) call is read as one line.

Usage:
    tools/check_cli_drift.py --asim-run BIN --asim2c BIN \\
        --asim-serve BIN [--root DIR]

Exit status: 0 when every flag is listed, 1 otherwise (each stray flag
is printed as file:line), or when no command line was found at all.
"""

import argparse
import glob
import os
import re
import subprocess
import sys

BINARIES = ("asim-run", "asim2c", "asim-serve")

# A binary name used as a command word: "build/asim-run --x", "`asim2c
# -o`", "COMMAND asim-serve" -- not "asim-run's" or "asim-serve-state".
COMMAND = re.compile(r"(?:^|[\s/`\"(])(asim-run|asim2c|asim-serve)"
                     r"(?=[\s`\"]|$)")


def help_flags(binary):
    """Flag names in the spelling column of `binary --help`."""
    out = subprocess.run([binary, "--help"], capture_output=True,
                         text=True, check=False)
    flags = set()
    for line in (out.stdout + out.stderr).splitlines():
        if not line.startswith("  -"):
            continue
        column = re.split(r"\s{2,}", line.strip())[0]
        for spelling in column.split(","):
            flags.add(re.split(r"[= ]", spelling.strip())[0])
    return flags


def logical_lines(path):
    """(first line number, text) with continuations joined."""
    with open(path, encoding="utf-8") as f:
        lines = f.read().splitlines()
    cmake = os.path.basename(path) == "CMakeLists.txt"
    i = 0
    while i < len(lines):
        start, text = i + 1, lines[i]
        if cmake and "add_test(" in text:
            depth = text.count("(") - text.count(")")
            while depth > 0 and i + 1 < len(lines):
                i += 1
                depth += lines[i].count("(") - lines[i].count(")")
                text += " " + lines[i]
        else:
            while text.endswith("\\") and i + 1 < len(lines):
                i += 1
                text = text[:-1] + " " + lines[i]
        yield start, text
        i += 1


def is_separator(token):
    """True where one shell command ends and the next begins."""
    return token in (")", "&") or token[0] in "|&;<>" or \
        token.startswith("2>")


def flags_on(text):
    """(binary, flag) for every flag following a binary in `text`."""
    for match in COMMAND.finditer(text):
        binary = match.group(1)
        rest = text[match.end():]
        if rest.startswith("`"):
            continue  # the name alone, quoted in prose
        for token in rest.split():
            if is_separator(token):
                break
            bare = token.strip("\"'()[]`,.;:")
            if re.match(r"--?[A-Za-z]", bare):
                yield binary, bare.split("=")[0]
            if "`" in token.lstrip("`"):
                break  # the end of an inline code span


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    for binary in BINARIES:
        ap.add_argument("--" + binary, required=True, metavar="BIN")
    ap.add_argument("--root", default=".")
    args = ap.parse_args()

    listed = {b: help_flags(getattr(args, b.replace("-", "_")))
              for b in BINARIES}
    for binary, flags in listed.items():
        if "--help" not in flags:
            print(f"{binary} --help lists no flags", file=sys.stderr)
            return 1

    sources = [os.path.join(args.root, "README.md"),
               os.path.join(args.root, "CMakeLists.txt"),
               os.path.join(args.root, ".github", "workflows", "ci.yml")]
    sources += sorted(glob.glob(os.path.join(args.root, "docs", "*.md")))
    checked = 0
    stray = 0
    for path in sources:
        for lineno, text in logical_lines(path):
            for binary, flag in flags_on(text):
                checked += 1
                if flag not in listed[binary]:
                    stray += 1
                    print(f"{os.path.relpath(path, args.root)}:{lineno}: "
                          f"{binary} {flag} is not in its --help",
                          file=sys.stderr)
    if checked == 0:
        print("no documented command lines found", file=sys.stderr)
        return 1
    print(f"{checked} documented flags checked, {stray} stray")
    return 1 if stray else 0


if __name__ == "__main__":
    sys.exit(main())
