#!/usr/bin/env python3
"""Documentation consistency gate (CI job `docs`).

1. Help-text drift: README.md embeds the verbatim `paris_sim --help` output
   between `<!-- paris-sim-help:begin -->` / `<!-- paris-sim-help:end -->`
   markers. This script runs the built binary and diffs, so the CLI flag
   reference in the README cannot drift from the tool (the usage line's
   argv[0] is normalized on both sides).

2. Markdown link check: every relative link or image in README.md and
   DESIGN.md must point at an existing file or directory (http(s) links are
   skipped — CI runs offline).

3. Scenario-flag coverage: every `--scenario-*` flag the binary reports in
   --help must appear inside the README help block (belt-and-braces on top
   of the verbatim diff: it still fires if the markers are moved to exclude
   the scenario section, and it pins the minimum expected flag set).

4. Loopback port registry: socket test suites run concurrently under
   `ctest -j`, so the port ranges they bind (extracted from tests/*.cc: each
   base-port literal and the suite's process count) must not overlap across
   suites.

Usage: tools/check_docs.py [--binary build/paris_sim]
Exit code 0 = docs consistent, 1 = drift/broken links/port overlap.
"""

import argparse
import difflib
import pathlib
import re
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
BEGIN = "<!-- paris-sim-help:begin -->"
END = "<!-- paris-sim-help:end -->"


def normalize_usage(text: str) -> str:
    return re.sub(r"^usage: \S+ \[options\]", "usage: paris_sim [options]", text.strip(),
                  count=1)


def check_help(binary: pathlib.Path) -> int:
    readme = (ROOT / "README.md").read_text()
    try:
        block = readme.split(BEGIN)[1].split(END)[0]
    except IndexError:
        print(f"ERROR: README.md is missing the {BEGIN} / {END} markers")
        return 1
    fences = re.findall(r"```text\n(.*?)```", block, flags=re.S)
    if len(fences) != 1:
        print("ERROR: expected exactly one ```text fence between the help markers")
        return 1
    documented = normalize_usage(fences[0])

    out = subprocess.run([str(binary), "--help"], capture_output=True, text=True)
    if out.returncode != 0:
        print(f"ERROR: {binary} --help exited {out.returncode}")
        return 1
    actual = normalize_usage(out.stdout)

    if documented != actual:
        print("ERROR: README.md flag reference drifted from `paris_sim --help`:")
        sys.stdout.writelines(difflib.unified_diff(
            documented.splitlines(keepends=True), actual.splitlines(keepends=True),
            fromfile="README.md", tofile="paris_sim --help"))
        print("\nRegenerate: paste `paris_sim --help` into the marked README block.")
        return 1
    print("help-text check: README flag reference matches `paris_sim --help`")
    return 0


def check_scenario_flags(binary: pathlib.Path) -> int:
    out = subprocess.run([str(binary), "--help"], capture_output=True, text=True)
    if out.returncode != 0:
        print(f"ERROR: {binary} --help exited {out.returncode}")
        return 1
    flags = sorted(set(re.findall(r"--scenario-[a-z-]+", out.stdout)))
    expected = {"--scenario-seed", "--scenario-file", "--scenario-print"}
    missing_from_help = expected - set(flags)
    if missing_from_help:
        print(f"ERROR: paris_sim --help lost scenario flags: "
              f"{', '.join(sorted(missing_from_help))}")
        return 1
    readme = (ROOT / "README.md").read_text()
    try:
        block = readme.split(BEGIN)[1].split(END)[0]
    except IndexError:
        print(f"ERROR: README.md is missing the {BEGIN} / {END} markers")
        return 1
    undocumented = [f for f in flags if f not in block]
    if undocumented:
        print("ERROR: README help block is missing scenario flags: "
              f"{', '.join(undocumented)}")
        return 1
    print(f"scenario-flag check: {len(flags)} --scenario-* flags documented "
          "in the README help block")
    return 0


LINK_RE = re.compile(r"!?\[[^\]]*\]\(([^)#\s]+)(?:#[^)\s]*)?\)")


def check_links() -> int:
    bad = 0
    for doc in ("README.md", "DESIGN.md"):
        text = (ROOT / doc).read_text()
        # Strip fenced code blocks: their bracket syntax is not a link.
        text = re.sub(r"```.*?```", "", text, flags=re.S)
        for target in LINK_RE.findall(text):
            if target.startswith(("http://", "https://", "mailto:")):
                continue
            if not (ROOT / target).exists():
                print(f"ERROR: {doc} links to missing path: {target}")
                bad += 1
    if bad == 0:
        print("link check: all relative links in README.md/DESIGN.md resolve")
    return 1 if bad else 0


# Loopback ports of the test suites live in this band (DESIGN §13's
# registry); other integers in a socket suite are not ports.
PORT_BAND = range(7400, 8000)
# Comments, string literals and char literals (a quote after a word
# character is a digit separator, as in 1'000, not a char literal).
CODE_TOKEN_RE = re.compile(
    r'//[^\n]*|/\*.*?\*/|"(?:\\.|[^"\\\n])*"|(?<!\w)\'(?:\\.|[^\'\\\n])*\'', re.S)
PROCS_RE = re.compile(r"(?:processes|nprocs)\s*=\s*(\d+)|loopback_host_list\(\s*(\d+)")
ENDPOINT_RE = re.compile(r"(?:\d{1,3}(?:\.\d{1,3}){3}|localhost):(\d+)")
BASE_RE = re.compile(r"\bk\w*BasePort\s*=\s*(\d+)\s*;")
BLOCK_RE = re.compile(r"\bk\w*BasePort\s*=\s*(\d+)\s*;\s*[^;]*\bk\w*PortBlock\s*=\s*(\d+)\s*;")


def suite_port_ranges(path: pathlib.Path) -> list:
    """[lo, hi) loopback port ranges a socket test suite binds.

    Comments are dropped and string literals scanned only for host:port
    endpoints (one port each). A `k...BasePort = P;` constant must be
    followed by `k...PortBlock = N;` and owns [P, P+N): a suite deriving
    ports from a base constant has a range no literal shows, so it must
    declare one (ValueError otherwise). Every other literal in PORT_BAND is
    a base port owning [P, P+procs), procs being the largest process count
    the file sets.
    """
    text = path.read_text()
    endpoints = []

    def blank(m):
        tok = m.group(0)
        if tok.startswith('"'):
            endpoints.extend(int(p) for p in ENDPOINT_RE.findall(tok))
        return " "

    code = CODE_TOKEN_RE.sub(blank, text)
    if "Kind::kSockets" not in code and "SocketBackend" not in code:
        return []
    procs = max([int(a or b) for a, b in PROCS_RE.findall(code)] or [1])
    ranges = [(p, p + 1) for p in endpoints if p in PORT_BAND]
    block_bases = set()
    for base, width in BLOCK_RE.findall(code):
        ranges.append((int(base), int(base) + int(width)))
        block_bases.add(int(base))
    for base in BASE_RE.findall(code):
        if int(base) not in block_bases:
            raise ValueError(f"base-port constant {base} has no k...PortBlock after it")
    for lit in re.findall(r"(?<![\w.'])(\d{4})(?![\w.'])", code):
        port = int(lit)
        if port in PORT_BAND and port not in block_bases:
            ranges.append((port, port + procs))
    return sorted(set(ranges))


def check_test_ports() -> int:
    """Socket suites run concurrently under `ctest -j`: no two may share a port."""
    owned = []
    bad = 0
    for path in sorted((ROOT / "tests").glob("*.cc")):
        try:
            owned += [(lo, hi, path.stem) for lo, hi in suite_port_ranges(path)]
        except ValueError as e:
            print(f"ERROR: {path.name}: {e}")
            bad += 1
    owned.sort()
    for i, (lo, hi, suite) in enumerate(owned):
        for lo2, hi2, suite2 in owned[i + 1:]:
            if lo2 >= hi:
                break
            if suite2 != suite:
                print(f"ERROR: {suite} ports [{lo}, {hi}) overlap "
                      f"{suite2} ports [{lo2}, {hi2})")
                bad += 1
    if bad == 0:
        suites = sorted({s for _, _, s in owned})
        print(f"port check: {len(owned)} loopback port ranges across "
              f"{len(suites)} socket suites are disjoint")
    return 1 if bad else 0


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--binary", default=ROOT / "build" / "paris_sim", type=pathlib.Path)
    args = ap.parse_args()
    return (check_help(args.binary) | check_links() | check_scenario_flags(args.binary)
            | check_test_ports())


if __name__ == "__main__":
    sys.exit(main())
