#!/usr/bin/env python3
"""Documentation consistency checker.

Fails (exit 1) when README.md, DESIGN.md, EXPERIMENTS.md or docs/*.md
reference things that don't exist:

  1. markdown links `[text](path)` whose target file is missing
     (external URLs and #anchors are skipped);
  2. inline-code file references like `lib/core/campaign.ml` that don't
     resolve (globs like `examples/programs/*.mc` must match something);
  3. flags like `--jobs` that neither bin/compi_cli.ml nor the bench
     harness (bench/main.ml) defines, and
     `compi-cli <cmd>` / `compi_cli.exe -- <cmd>` invocations naming a
     subcommand it does not define;
  4. telemetry vocabulary drift: every event kind `lib/obs/event.ml`
     can emit must have a `### `kind`` section in docs/TELEMETRY.md,
     and every span kind lib/ or bin/ records (`Timeline.span "kind"`,
     `Timeline.record ~kind:"kind"`) must be listed in TELEMETRY.md's
     span kind vocabulary and accepted by `Fold.span_busy_kind` or
     `Fold.span_wait_kind` in lib/obs/fold.ml;
  5. metrics drift: every instrument lib/ registers
     (`Obs.Metrics.counter|gauge|histogram "name"`) and every folded
     counter `Campaign.run_with_counters` writes must be listed in
     TELEMETRY.md's "Metrics registry" section, and every metric name
     that section lists must be registered (in lib/, bin/ or bench/),
     written, or a figure BENCHMARK.json names.

With `--exe PATH` (a built compi_cli executable) it additionally runs
`PATH <cmd> --help` for each audited subcommand (run, explain, report,
profile, watch, history, compare)
and cross-checks the live help text: the checkpoint/resume,
observatory and live-monitor/ledger flags must exist in the binary AND
be documented, and every flag the help mentions must also be found by
the source-level regex (so the regex cannot silently rot).

Run from the repository root: python3 scripts/check_docs.py
"""

import argparse
import glob
import json
import os
import re
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

DOC_FILES = [
    os.path.join(ROOT, "README.md"),
    os.path.join(ROOT, "DESIGN.md"),
    os.path.join(ROOT, "EXPERIMENTS.md"),
] + sorted(glob.glob(os.path.join(ROOT, "docs", "*.md")))

# Extensions that make an inline-code token a checkable file reference.
FILE_EXTS = (".ml", ".mli", ".mc", ".md", ".json", ".jsonl", ".py", ".yml",
             ".txt")

FENCE_RE = re.compile(r"^```.*?^```", re.M | re.S)
LINK_RE = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")
CODE_RE = re.compile(r"`([^`\n]+)`")
FLAG_RE = re.compile(r"(?<![\w-])(--[a-z][a-z0-9-]*)")
SUBCMD_RE = re.compile(r"\bcompi[-_]cli(?:\.exe)?[ \t]+(?:--[ \t]+)?([a-z][a-z-]*)")

# Flags cmdliner generates for every command.
BUILTIN_FLAGS = {"--help", "--version"}

# Per-subcommand flags that must exist in the built binary and be
# documented — the checkpoint/resume surface the CI matrix exercises,
# and the observatory surface the explain/report smoke job drives.
REQUIRED_FLAGS = {
    "run": {"--checkpoint", "--checkpoint-every", "--resume", "--trace-events",
            "--exec-mode", "--schedules", "--schedule-depth",
            "--ledger", "--no-reduce", "--one-way",
            "--no-fwk", "--save-bugs", "--csv", "--curve", "--uncovered",
            "--annotate"},
    "explain": {"--branch", "--testcase", "--target"},
    "report": {"--stable", "--target"},
    "profile": {"--stable"},
    "watch": {"--interval", "--once"},
    "history": {"--target"},
    "compare": {"--ledger", "--tolerance"},
}


def event_kinds():
    """Kind strings the `kind_name` function in lib/obs/event.ml emits."""
    src = open(os.path.join(ROOT, "lib", "obs", "event.ml")).read()
    m = re.search(r"let kind_name = function\n(.*?)\n\n", src, re.S)
    if not m:
        return None
    return set(re.findall(r'->\s*"([a-z_]+)"', m.group(1)))


SPAN_RE = re.compile(
    r'Timeline\.(?:span\s+|record\s+~kind:\s*)"([a-z._]+)"')


def recorded_span_kinds():
    """Span kinds lib/ or bin/ passes to Timeline.span / Timeline.record."""
    kinds = set()
    for pat in ("lib/**/*.ml", "bin/**/*.ml"):
        for path in glob.glob(os.path.join(ROOT, pat), recursive=True):
            kinds.update(SPAN_RE.findall(open(path).read()))
    return kinds


def fold_span_kinds():
    """Kinds `span_busy_kind` or `span_wait_kind` in lib/obs/fold.ml
    accept, or None if either function cannot be parsed."""
    src = open(os.path.join(ROOT, "lib", "obs", "fold.ml")).read()
    kinds = set()
    for fn in ("span_busy_kind", "span_wait_kind"):
        m = re.search(r"let %s = function\n(.*?)-> true" % fn, src, re.S)
        if not m:
            return None
        kinds.update(re.findall(r'"([a-z._]+)"', m.group(1)))
    return kinds


def check_telemetry_vocab(errors):
    """TELEMETRY.md must document every event kind and span kind."""
    path = os.path.join(ROOT, "docs", "TELEMETRY.md")
    if not os.path.exists(path):
        errors.append("missing documentation file: docs/TELEMETRY.md")
        return
    text = open(path).read()
    kinds = event_kinds()
    if kinds is None:
        errors.append("cannot parse kind_name from lib/obs/event.ml "
                      "(audit regex rotted)")
    else:
        headings = set(re.findall(r"^### `([a-z_]+)`", text, re.M))
        for kind in sorted(kinds - headings):
            errors.append(
                f"docs/TELEMETRY.md: event kind {kind!r} (lib/obs/event.ml) "
                f"has no `### `{kind}`` section")
        for kind in sorted(headings - kinds):
            errors.append(
                f"docs/TELEMETRY.md: documents event kind {kind!r} that "
                f"lib/obs/event.ml cannot emit")
        count = re.search(r"one of the (\d+) names", text)
        if count and int(count.group(1)) != len(kinds):
            errors.append(
                f"docs/TELEMETRY.md: says 'one of the {count.group(1)} names' "
                f"but lib/obs/event.ml defines {len(kinds)} kinds")
    vocab = re.search(r"^Kind vocabulary this build understands:\n(.*?)^\n(?!-)",
                      text, re.M | re.S)
    doc_kinds = set(re.findall(r"`([a-z._]+)`", vocab.group(1))) \
        if vocab else set()
    if not vocab:
        errors.append("docs/TELEMETRY.md: no span kind vocabulary to audit")
    fold_kinds = fold_span_kinds()
    if fold_kinds is None:
        errors.append("cannot parse span_busy_kind/span_wait_kind from "
                      "lib/obs/fold.ml (audit regex rotted)")
        fold_kinds = set()
    recorded = recorded_span_kinds()
    if not recorded:
        errors.append("no Timeline.span/record call in lib/ or bin/ "
                      "(audit regex rotted)")
    for kind in sorted(recorded - doc_kinds):
        errors.append(
            f"docs/TELEMETRY.md: span kind {kind!r} (Timeline call site) "
            f"missing from the span kind vocabulary")
    for kind in sorted(recorded - fold_kinds):
        errors.append(
            f"lib/obs/fold.ml: span kind {kind!r} (Timeline call site) is "
            f"neither a busy nor a wait kind, so profile would skip it")
    check_metrics_vocab(text, errors)


METRIC_RE = re.compile(r'Obs\.Metrics\.(?:counter|gauge|histogram)\s+"([a-z0-9_.]+)"')
METRIC_NAME_RE = re.compile(r"^[a-z]+(?:\.[a-z0-9_]+)+$")


def registered_metrics(dirs):
    """Names passed to Obs.Metrics.counter/gauge/histogram under dirs."""
    names = set()
    for d in dirs:
        for path in glob.glob(os.path.join(ROOT, d, "**", "*.ml"), recursive=True):
            names.update(METRIC_RE.findall(open(path).read()))
    return names


def written_counters():
    """Names of the folded counters Campaign.run_with_counters returns
    beside its result, or None if the list cannot be found."""
    src = open(os.path.join(ROOT, "lib", "core", "campaign.ml")).read()
    m = re.search(r"let run_with_counters .*?\(\s*result,\s*\[(.*?)\]\s*\)",
                  src, re.S)
    return set(re.findall(r'"([a-z0-9_.]+)"', m.group(1))) if m else None


def check_metrics_vocab(text, errors):
    """TELEMETRY.md's metrics section must list exactly the names lib/
    registers and the campaign writes (bench/ and bin/ names may be
    listed too)."""
    section = re.search(r"^## Metrics registry\n(.*?)(?=^## )", text, re.M | re.S)
    if not section:
        errors.append("docs/TELEMETRY.md: no 'Metrics registry' section to audit")
        return
    lib = registered_metrics(["lib"])
    written = written_counters()
    if not lib:
        errors.append("no Obs.Metrics.counter/gauge/histogram call in lib/ "
                      "(audit regex rotted)")
    if not written:
        errors.append("cannot parse the counter list of run_with_counters "
                      "from lib/core/campaign.ml (audit regex rotted)")
        written = set()
    # the section may quote the perfbench figures an instrument feeds
    bench = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
    reported = {m["name"] for key in ("end_to_end", "per_layer") for m in bench[key]}
    known = lib | written | registered_metrics(["bin", "bench"])
    listed = {tok for tok in CODE_RE.findall(section.group(1))
              if METRIC_NAME_RE.match(tok) and not tok.endswith(FILE_EXTS)}
    for name in sorted((lib | written) - listed):
        errors.append(
            f"docs/TELEMETRY.md: metric {name!r} is registered or written "
            f"but missing from the 'Metrics registry' section")
    for name in sorted(listed - known - reported):
        errors.append(
            f"docs/TELEMETRY.md: 'Metrics registry' lists {name!r}, which "
            f"nothing registers or writes")


def cli_flags():
    """Flags defined in bin/compi_cli.ml via `info [ "name"; ... ]`."""
    src = open(os.path.join(ROOT, "bin", "compi_cli.ml")).read()
    flags = set(BUILTIN_FLAGS)
    for group in re.findall(r"info\s*\[([^\]]*)\]", src):
        for name in re.findall(r'"([^"]+)"', group):
            flags.add(("--" if len(name) > 1 else "-") + name)
    return flags


def bench_flags():
    """Flags the bench harness's argument parser (bench/main.ml) accepts."""
    src = open(os.path.join(ROOT, "bench", "main.ml")).read()
    return set(re.findall(r'"(--[a-z][a-z-]*)"\s*::', src))


def cli_subcommands():
    """Subcommands bin/compi_cli.ml defines via `Cmd.info "name"`."""
    src = open(os.path.join(ROOT, "bin", "compi_cli.ml")).read()
    return set(re.findall(r'Cmd\.info\s+"([a-z][a-z-]*)"', src)) - {"compi-cli"}


def help_flags(exe, cmd):
    """Flags `EXE <cmd> --help` actually reports (live binary truth)."""
    out = subprocess.run(
        [exe, cmd, "--help"],
        capture_output=True,
        text=True,
        check=True,
        env={**os.environ, "TERM": "dumb"},
    ).stdout
    return set(FLAG_RE.findall(out))


def check_cmd_help(exe, cmd, required, source_flags, doc_flags, errors):
    try:
        live = help_flags(exe, cmd)
    except (OSError, subprocess.CalledProcessError) as e:
        errors.append(f"{exe}: cannot query `{cmd} --help`: {e}")
        return
    for flag in sorted(required - live):
        errors.append(f"{exe}: `{cmd} --help` does not list {flag}")
    for flag in sorted(required - doc_flags):
        errors.append(f"documentation never mentions required flag {flag}")
    # drift guard: anything the binary advertises must be visible to the
    # source-level regex, or the static check is quietly incomplete
    for flag in sorted(live - source_flags):
        errors.append(f"{exe}: `{cmd} --help` lists {flag}, source scan does not")


def check_file(path, flags, subcommands, errors, doc_flags):
    rel = os.path.relpath(path, ROOT)
    text = open(path).read()
    base = os.path.dirname(path)

    prose = FENCE_RE.sub("", text)

    for target in LINK_RE.findall(prose):
        if target.startswith(("http://", "https://", "#", "mailto:")):
            continue
        target = target.split("#")[0]
        if target and not os.path.exists(os.path.join(base, target)):
            errors.append(f"{rel}: broken link: {target}")

    for token in CODE_RE.findall(prose):
        token = token.strip()
        # only repo-relative paths: must contain a separator, no spaces,
        # a known extension, and not be absolute (/tmp/... examples)
        if (
            "/" not in token
            or " " in token
            or token.startswith(("/", "http", "$"))
            or not token.endswith(FILE_EXTS)
        ):
            continue
        # resolve repo-relative first, then relative to the doc itself
        # (docs/*.md referring to ../DESIGN.md)
        if not glob.glob(os.path.join(ROOT, token)) and not glob.glob(
            os.path.join(base, token)
        ):
            errors.append(f"{rel}: referenced file does not exist: {token}")

    for flag in FLAG_RE.findall(text):
        doc_flags.add(flag)
        if flag not in flags:
            errors.append(f"{rel}: documented flag not defined by the CLI: {flag}")

    for cmd in SUBCMD_RE.findall(text):
        if cmd not in subcommands:
            errors.append(f"{rel}: documented subcommand not defined by the CLI: {cmd}")


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--exe",
        metavar="PATH",
        help="built compi_cli executable; cross-check per-subcommand --help output",
    )
    args = parser.parse_args()

    flags = cli_flags() | bench_flags()
    subcommands = cli_subcommands()
    errors = []
    doc_flags = set()
    for path in DOC_FILES:
        if os.path.exists(path):
            check_file(path, flags, subcommands, errors, doc_flags)
        else:
            errors.append(
                f"missing documentation file: {os.path.relpath(path, ROOT)}"
            )
    check_telemetry_vocab(errors)
    if args.exe:
        for cmd, required in sorted(REQUIRED_FLAGS.items()):
            check_cmd_help(args.exe, cmd, required, flags, doc_flags, errors)
    if errors:
        for e in errors:
            print(f"error: {e}", file=sys.stderr)
        print(f"{len(errors)} documentation error(s)", file=sys.stderr)
        return 1
    live = " + live --help of " + "/".join(sorted(REQUIRED_FLAGS)) if args.exe else ""
    print(f"ok: {len(DOC_FILES)} files checked against {len(flags)} CLI flags{live}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
