#!/usr/bin/env python3
"""Repo-specific lint pass over compile_commands.json (DESIGN.md Section 14).

Enforces concurrency-contract and hot-path invariants that clang-tidy has no
checks for:

  switch-default       every `switch` over MsgKind must be exhaustive — a
                       `default:` would silently swallow a newly added
                       punctuation kind instead of failing -Wswitch.
  hot-path-container   no std::deque / std::map / std::unordered_map in the
                       hot-path dirs (src/core, src/llhj, src/hsj,
                       src/runtime, src/stream): node-chunked or
                       pointer-chased layouts defeat the prefetcher; use
                       VecDeque / flat_hash / sorted vectors.
  env-knob             no bare std::getenv outside src/common/env.hpp — env
                       knobs are read through env::Raw and parsed with a
                       warning on unrecognized values, so a misspelled
                       value never silently selects the wrong code path.
                       Every env::Raw( call site must carry
                       NOLINT(env-knob) on its line, so that adding a knob
                       is a visible act.
  raw-new-delete       no raw new/delete expressions outside
                       src/runtime/mempolicy.cpp — page-granular
                       allocations flow through AllocatePages/FreePages.
                       (Placement-new is allowed: it starts object
                       lifetimes in already-owned storage.)
  raw-mutex            no std::mutex / std::lock_guard outside
                       src/common/thread_annotations.hpp — locks must be
                       the AnnotatedMutex/MutexLock wrappers so clang's
                       -Wthread-safety analysis can see them.
  hot-path-sleep       no sleep_for / usleep / nanosleep in the hot-path
                       dirs outside src/runtime/backoff.hpp — idle engine
                       threads park on their futex doorbell and wake on
                       push (src/runtime/doorbell.hpp); a timed sleep
                       there would quietly bring back sleep-polling.
                       A line marked NOLINT(hot-path-sleep) is exempt.
  hot-path-clock       every NowNs( / ::now( call in the hot-path dirs
                       must carry NOLINT(hot-path-clock) on its line. A
                       clock read costs tens of ns; the sanctioned sites
                       read it once per push call, once per result burst,
                       or in an idle executor's loop, and a per-tuple or
                       per-result read must not come back unnoticed.

Scope: files under src/ reachable from compile_commands.json (headers
discovered transitively through #include "..." of in-repo paths). Pure
Python on purpose — the container running CI legs locally has no libclang;
comments and string literals are stripped before matching so prose cannot
trip a rule.

Fixtures (tools/lint/fixtures/) carry a `// LINT_AS: <path>` directive that
makes a file lint as if it lived at <path>; run_lint.sh uses this to prove
every rule fires.

Exit status: 0 clean, 1 findings, 2 usage/configuration error.
"""

from __future__ import annotations

import json
import os
import re
import sys

HOT_PATH_DIRS = ("src/core", "src/llhj", "src/hsj", "src/runtime",
                 "src/stream")

BANNED_CONTAINERS = re.compile(r"\bstd\s*::\s*(deque|map|unordered_map)\s*<")
GETENV = re.compile(r"(\bstd\s*::\s*getenv\b)|(?<![\w:])getenv\s*\(")
ENV_RAW = re.compile(r"\benv\s*::\s*Raw\s*\(")
# Marks a sanctioned knob read; the marker must sit on the call's own line.
ENV_EXEMPT = "NOLINT(env-knob)"
# `new` not followed by `(` — placement-new `new (addr) T` is allowed; the
# explicit ::operator new/delete forms are caught separately.
RAW_NEW = re.compile(r"(?<![\w_])new\s+[A-Za-z_:]")
OPERATOR_NEW = re.compile(r"::\s*operator\s+(new|delete)\b")
# delete-expressions: `delete p` / `delete[] p`; `= delete;` and
# `= deleteize...` never match because they are followed by `;` or `,`.
RAW_DELETE = re.compile(r"(?<![\w_])delete\s*(\[\s*\])?\s*[A-Za-z_:(*]")
RAW_MUTEX = re.compile(r"\bstd\s*::\s*(mutex|lock_guard|unique_lock|"
                       r"scoped_lock|shared_mutex|recursive_mutex)\b")
SLEEP_CALL = re.compile(r"(?<![\w])(sleep_for|usleep|nanosleep)\s*\(")
# Marks the one line a hot-path sleep is deliberate (a fallback where no
# wake-up mechanism exists); the marker must sit on the call's own line.
SLEEP_EXEMPT = "NOLINT(hot-path-sleep)"
CLOCK_CALL = re.compile(r"((?<![\w])NowNs|::\s*now)\s*\(")
# Marks a clock read taken at most once per call, burst or idle spin.
CLOCK_EXEMPT = "NOLINT(hot-path-clock)"
SWITCH_KIND = re.compile(r"\bswitch\s*\(")
DEFAULT_LABEL = re.compile(r"(?<![\w_])default\s*:")
LINT_AS = re.compile(r"//\s*LINT_AS:\s*(\S+)")
INCLUDE = re.compile(r'^\s*#\s*include\s+"([^"]+)"', re.MULTILINE)


def strip_comments_and_strings(text: str) -> str:
    """Blanks comments, string and char literals, preserving newlines so
    reported line numbers stay exact."""
    out = []
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if c == "/" and nxt == "/":
            j = text.find("\n", i)
            if j == -1:
                break
            out.append(" " * (j - i))
            i = j
        elif c == "/" and nxt == "*":
            j = text.find("*/", i + 2)
            j = n if j == -1 else j + 2
            out.append("".join(ch if ch == "\n" else " "
                               for ch in text[i:j]))
            i = j
        elif c == '"' or c == "'":
            quote = c
            # Raw strings: R"delim( ... )delim"
            if quote == '"' and i > 0 and text[i - 1] == "R":
                m = re.match(r'R"([^(\s]*)\(', text[i - 1:])
                if m:
                    closer = ")" + m.group(1) + '"'
                    j = text.find(closer, i)
                    j = n if j == -1 else j + len(closer)
                    out.append("".join(ch if ch == "\n" else " "
                                       for ch in text[i:j]))
                    i = j
                    continue
            j = i + 1
            while j < n:
                if text[j] == "\\":
                    j += 2
                    continue
                if text[j] == quote or text[j] == "\n":
                    j += 1
                    break
                j += 1
            out.append(quote + " " * max(0, j - i - 2) +
                       (quote if j <= n and j - i >= 2 else ""))
            i = j
        else:
            out.append(c)
            i += 1
    return "".join(out)


def line_of(text: str, pos: int) -> int:
    return text.count("\n", 0, pos) + 1


def find_switch_defaults(code: str):
    """Yields positions of `default:` labels inside switch statements whose
    controlling expression mentions `kind` (the MsgKind dispatch switches).
    Brace matching on comment/string-stripped code."""
    for m in SWITCH_KIND.finditer(code):
        # Controlling expression: up to the matching ')'.
        depth = 0
        i = m.end() - 1
        while i < len(code):
            if code[i] == "(":
                depth += 1
            elif code[i] == ")":
                depth -= 1
                if depth == 0:
                    break
            i += 1
        cond = code[m.end():i]
        if "kind" not in cond and "MsgKind" not in cond:
            continue
        # Switch body: first '{' after the ')', to its matching '}'.
        j = code.find("{", i)
        if j == -1:
            continue
        depth = 0
        k = j
        while k < len(code):
            if code[k] == "{":
                depth += 1
            elif code[k] == "}":
                depth -= 1
                if depth == 0:
                    break
            k += 1
        body = code[j:k]
        dm = DEFAULT_LABEL.search(body)
        if dm:
            yield j + dm.start()


class Linter:
    def __init__(self, repo_root: str):
        self.repo_root = os.path.realpath(repo_root)
        self.findings = []

    def relpath(self, path: str) -> str:
        return os.path.relpath(os.path.realpath(path), self.repo_root)

    def report(self, rule: str, rel: str, line: int, msg: str):
        self.findings.append((rel, line, rule, msg))

    def lint_file(self, path: str, pretend_rel: str | None = None):
        try:
            with open(path, "r", encoding="utf-8", errors="replace") as f:
                raw = f.read()
        except OSError as e:
            print(f"sjoin_lint: cannot read {path}: {e}", file=sys.stderr)
            return
        rel = pretend_rel or self.relpath(path)
        m = LINT_AS.search(raw)
        if m and pretend_rel is None:
            rel = m.group(1)
        code = strip_comments_and_strings(raw)

        in_src = rel.startswith("src/")
        hot = any(rel.startswith(d + "/") or rel == d for d in HOT_PATH_DIRS)

        # switch-default: applies everywhere in src/ (and fixtures).
        for pos in find_switch_defaults(code):
            self.report(
                "switch-default", rel, line_of(code, pos),
                "switch over MsgKind has a `default:` label; enumerate every "
                "kind so -Wswitch flags newly added punctuation kinds")

        if hot:
            for m2 in BANNED_CONTAINERS.finditer(code):
                self.report(
                    "hot-path-container", rel, line_of(code, m2.start()),
                    f"std::{m2.group(1)} in a hot-path dir; use "
                    "sjoin::VecDeque, flat_hash, or a sorted vector")

        if hot and rel != "src/runtime/backoff.hpp":
            raw_lines = raw.split("\n")
            for m2 in SLEEP_CALL.finditer(code):
                line = line_of(code, m2.start())
                if SLEEP_EXEMPT in raw_lines[line - 1]:
                    continue
                self.report(
                    "hot-path-sleep", rel, line,
                    f"{m2.group(1)} in a hot-path dir; idle engine threads "
                    "park on their doorbell (src/runtime/doorbell.hpp), and "
                    "the one timed wait lives in src/runtime/backoff.hpp")

        if hot:
            raw_lines = raw.split("\n")
            for m2 in CLOCK_CALL.finditer(code):
                line = line_of(code, m2.start())
                if CLOCK_EXEMPT in raw_lines[line - 1]:
                    continue
                self.report(
                    "hot-path-clock", rel, line,
                    "clock read in a hot-path dir; read the clock once per "
                    "push call or result burst and pass the stamp down, "
                    "then mark the line NOLINT(hot-path-clock)")

        if in_src and rel != "src/common/env.hpp":
            for m2 in GETENV.finditer(code):
                self.report(
                    "env-knob", rel, line_of(code, m2.start()),
                    "bare getenv; read knobs through sjoin::env::Raw "
                    "(src/common/env.hpp)")
            raw_lines = raw.split("\n")
            for m2 in ENV_RAW.finditer(code):
                line = line_of(code, m2.start())
                if ENV_EXEMPT in raw_lines[line - 1]:
                    continue
                self.report(
                    "env-knob", rel, line,
                    "unmarked env::Raw knob read; a new knob must earn its "
                    "place — mark the line NOLINT(env-knob) and document "
                    "the knob in CMakeLists.txt")

        if in_src and rel != "src/runtime/mempolicy.cpp":
            for m2 in OPERATOR_NEW.finditer(code):
                self.report(
                    "raw-new-delete", rel, line_of(code, m2.start()),
                    f"raw ::operator {m2.group(1)}; use "
                    "AllocatePages/FreePages (src/runtime/mempolicy.hpp)")
            for m2 in RAW_NEW.finditer(code):
                self.report(
                    "raw-new-delete", rel, line_of(code, m2.start()),
                    "raw new-expression; engine state is owned via "
                    "std::unique_ptr/containers, page memory via "
                    "AllocatePages")
            for m2 in RAW_DELETE.finditer(code):
                self.report(
                    "raw-new-delete", rel, line_of(code, m2.start()),
                    "raw delete-expression; see raw new-expression rule")

        if in_src and rel != "src/common/thread_annotations.hpp":
            for m2 in RAW_MUTEX.finditer(code):
                self.report(
                    "raw-mutex", rel, line_of(code, m2.start()),
                    f"std::{m2.group(1)}; use sjoin::AnnotatedMutex / "
                    "sjoin::MutexLock (src/common/thread_annotations.hpp) "
                    "so -Wthread-safety sees the lock")


def gather_sources(compile_commands_path: str, repo_root: str):
    """Translation units from compile_commands.json plus all in-repo
    headers they transitively include."""
    with open(compile_commands_path, "r", encoding="utf-8") as f:
        entries = json.load(f)
    repo_root = os.path.realpath(repo_root)
    seen: set[str] = set()
    queue: list[str] = []

    def add(path: str):
        real = os.path.realpath(path)
        if real in seen or not real.startswith(repo_root + os.sep):
            return
        if not os.path.isfile(real):
            return
        seen.add(real)
        queue.append(real)

    for entry in entries:
        add(os.path.join(entry.get("directory", ""), entry["file"]))

    src_root = os.path.join(repo_root, "src")
    while queue:
        path = queue.pop()
        try:
            with open(path, "r", encoding="utf-8", errors="replace") as f:
                text = f.read()
        except OSError:
            continue
        for m in INCLUDE.finditer(text):
            inc = m.group(1)
            # Project includes are rooted at src/ (see CMakeLists) or
            # relative to the including file (tests/bench helpers).
            add(os.path.join(src_root, inc))
            add(os.path.join(os.path.dirname(path), inc))
    return sorted(seen)


def main(argv: list[str]) -> int:
    if len(argv) >= 2 and argv[1] in ("-h", "--help"):
        print(__doc__)
        return 0
    repo_root = os.path.realpath(
        os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", ".."))

    linter = Linter(repo_root)
    files: list[str] = []
    explicit = [a for a in argv[1:] if not a.endswith("compile_commands.json")
                and not os.path.isdir(a)]
    if explicit:
        files = explicit
    else:
        cc = None
        for a in argv[1:]:
            cand = a if a.endswith("compile_commands.json") else os.path.join(
                a, "compile_commands.json")
            if os.path.isfile(cand):
                cc = cand
                break
        if cc is None:
            default = os.path.join(repo_root, "build", "compile_commands.json")
            if os.path.isfile(default):
                cc = default
        if cc is None:
            print("sjoin_lint: no compile_commands.json found; pass a build "
                  "dir (cmake exports it automatically) or explicit files",
                  file=sys.stderr)
            return 2
        files = gather_sources(cc, repo_root)

    for path in files:
        linter.lint_file(path)

    for rel, line, rule, msg in sorted(linter.findings):
        print(f"{rel}:{line}: [{rule}] {msg}")
    if linter.findings:
        print(f"sjoin_lint: {len(linter.findings)} finding(s)",
              file=sys.stderr)
        return 1
    print(f"sjoin_lint: clean ({len(files)} files)")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
