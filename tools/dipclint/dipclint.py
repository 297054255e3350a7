#!/usr/bin/env python3
"""dipclint: repo-specific static analyzer for the dIPC simulator.

Enforces the repo's cross-cutting invariants that generic tools cannot
see: capability-buffer lifetimes, futex predicate discipline, deadline
propagation on blocking APIs, the fault-probe manifest, and memory-order
justifications. See tools/dipclint/README-worthy docs in the
top-level README ("Static analysis").

Usage:
  dipclint.py [--json] [--root DIR] [PATH ...]   # default: src/ under root
  dipclint.py --self-test                        # run the fixture corpus

Suppression: append `// NOLINT-DIPC(RULE): reason` on the finding line or
in the comment block directly above it. The reason is mandatory.

Exit status: 0 clean, 1 findings, 2 usage/internal error.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from cpp_lexer import COMMENT, code_toks, lex
from cpp_model import extract_functions
from rules import (
    ALL_RULES,
    FileModel,
    Finding,
    RepoContext,
    RULE_FUNCS,
    load_probe_manifest,
)

_NOLINT_RE = re.compile(r"NOLINT-DIPC\(([A-Z\-, ]+)\)(:\s*\S.*)?")


def build_model(path: str, rel: str) -> FileModel:
    with open(path, "r", encoding="utf-8", errors="replace") as f:
        text = f.read()
    toks = lex(text)
    code = code_toks(toks)
    funcs, decls = extract_functions(code)
    return FileModel(path=rel, toks=toks, code=code, funcs=funcs, decls=decls)


def collect_suppressions(fm: FileModel) -> tuple[dict[int, set[str]], list[Finding]]:
    """Maps line -> suppressed rules. A NOLINT comment covers its own line
    and, when it is the only thing on its line, the next code line below.
    Returns NOLINT-REASON findings for reason-less suppressions."""
    by_line: dict[int, set[str]] = {}
    bad: list[Finding] = []
    comment_lines: set[int] = set()
    for t in fm.toks:
        if t.kind == COMMENT:
            comment_lines.add(t.line)
    for t in fm.toks:
        if t.kind != COMMENT:
            continue
        m = _NOLINT_RE.search(t.text)
        if not m:
            continue
        rules = {r.strip() for r in m.group(1).split(",") if r.strip()}
        unknown = rules - set(ALL_RULES)
        if unknown:
            bad.append(Finding(
                "NOLINT-REASON", fm.path, t.line,
                f"unknown rule name(s) in NOLINT-DIPC: {', '.join(sorted(unknown))}"))
        if not m.group(2):
            bad.append(Finding(
                "NOLINT-REASON", fm.path, t.line,
                "NOLINT-DIPC without a ': reason' — suppressions must say why"))
            continue
        # The comment's own line(s)...
        span = [t.line]
        # ...and, for comment-only lines, extend downward through the
        # contiguous comment block to the first code line below it.
        ln = t.line
        while ln + 1 in comment_lines:
            ln += 1
            span.append(ln)
        span.append(ln + 1)
        for s in span:
            by_line.setdefault(s, set()).update(rules)
    return by_line, bad


def lint_file(path: str, rel: str, ctx: RepoContext) -> list[Finding]:
    fm = build_model(path, rel)
    suppress, findings = collect_suppressions(fm)
    for rule_fn in RULE_FUNCS:
        for f in rule_fn(fm, ctx):
            lines = (f.line, *f.extra_lines)
            if any(f.rule in suppress.get(ln, ()) for ln in lines):
                continue
            findings.append(f)
    findings.sort(key=lambda f: (f.path, f.line, f.rule))
    return findings


def load_context(root: str) -> RepoContext:
    probes = os.path.join(root, "src", "fault", "probes.def")
    idents: set[str] = set()
    names: set[str] = set()
    if os.path.exists(probes):
        with open(probes, encoding="utf-8") as f:
            idents, names = load_probe_manifest(f.read())
    return RepoContext(probe_idents=idents, probe_names=names)


def iter_sources(paths: list[str], root: str):
    for p in paths:
        ap = p if os.path.isabs(p) else os.path.join(root, p)
        if os.path.isfile(ap):
            yield ap
            continue
        for dirpath, dirnames, filenames in os.walk(ap):
            dirnames.sort()
            for fn in sorted(filenames):
                if fn.endswith((".cc", ".h")):
                    yield os.path.join(dirpath, fn)


def run_lint(paths: list[str], root: str, as_json: bool) -> int:
    ctx = load_context(root)
    all_findings: list[Finding] = []
    nfiles = 0
    for ap in iter_sources(paths, root):
        rel = os.path.relpath(ap, root).replace(os.sep, "/")
        nfiles += 1
        all_findings.extend(lint_file(ap, rel, ctx))
    if as_json:
        print(json.dumps({
            "files": nfiles,
            "findings": [
                {"rule": f.rule, "path": f.path, "line": f.line, "message": f.message}
                for f in all_findings
            ],
        }, indent=2))
    else:
        for f in all_findings:
            print(f)
        print(f"dipclint: {nfiles} files, {len(all_findings)} finding(s)")
    return 1 if all_findings else 0


# ---- Fixture self-test ----------------------------------------------------

_DIR_TO_RULE = {
    "cap_leak": "CAP-LEAK",
    "futex_predicate": "FUTEX-PREDICATE",
    "deadline_thread": "DEADLINE-THREAD",
    "probe_manifest": "PROBE-MANIFEST",
    "mem_order": "MEM-ORDER",
    "nolint_reason": "NOLINT-REASON",
}


def self_test(root: str) -> int:
    here = os.path.dirname(os.path.abspath(__file__))
    fixdir = os.path.join(here, "fixtures")
    ctx = load_context(root)
    failures = []
    ncases = 0
    for rule_dir in sorted(os.listdir(fixdir)):
        rule = _DIR_TO_RULE.get(rule_dir)
        if rule is None:
            continue
        dpath = os.path.join(fixdir, rule_dir)
        for fn in sorted(os.listdir(dpath)):
            if not fn.endswith(".cc"):
                continue
            ncases += 1
            fpath = os.path.join(dpath, fn)
            # Fixtures pretend to live in a rule-appropriate src/ path so
            # path-scoped rules fire; an optional first-line comment
            # `// dipclint-path: src/...` overrides the default.
            with open(fpath, encoding="utf-8") as f:
                first = f.readline()
            m = re.match(r"//\s*dipclint-path:\s*(\S+)", first)
            rel = m.group(1) if m else f"src/chan/{fn}"
            findings = lint_file(fpath, rel, ctx)
            hits = [f for f in findings if f.rule == rule]
            if fn.startswith("bad_") and not hits:
                failures.append(f"{rule_dir}/{fn}: expected a {rule} finding, got "
                                f"{[str(f) for f in findings] or 'none'}")
            elif fn.startswith("good_") and hits:
                failures.append(f"{rule_dir}/{fn}: expected no {rule} findings, got "
                                f"{[str(f) for f in hits]}")
            # Cross-rule noise in fixtures is a bug too: good/bad fixtures
            # must be clean of every OTHER rule.
            other = [f for f in findings if f.rule != rule]
            if other:
                failures.append(f"{rule_dir}/{fn}: unexpected cross-rule findings: "
                                f"{[str(f) for f in other]}")
    for msg in failures:
        print(f"SELF-TEST FAIL: {msg}")
    print(f"dipclint --self-test: {ncases} fixtures, {len(failures)} failure(s)")
    return 1 if failures else 0


def main(argv: list[str]) -> int:
    ap = argparse.ArgumentParser(prog="dipclint", description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("paths", nargs="*", help="files or directories (default: src/)")
    ap.add_argument("--root", help="repo root (default: autodetect from this script)")
    ap.add_argument("--json", action="store_true", help="machine-readable output")
    ap.add_argument("--self-test", action="store_true", help="run the fixture corpus")
    args = ap.parse_args(argv)
    root = args.root or os.path.normpath(
        os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", ".."))
    if args.self_test:
        return self_test(root)
    paths = args.paths or ["src"]
    return run_lint(paths, root, args.json)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
