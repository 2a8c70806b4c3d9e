#!/usr/bin/env python3
"""Run clippy on a seeded violation fixture and require each named lint to fire.

    ci/clippy_must_fail.py <Cargo.toml> <lint>[=<text>] ...

Each argument names a lint by its code (`clippy::unwrap_used`,
`unfulfilled_lint_expectations`), optionally with a text that the
diagnostic's message or flagged source line must contain
(`clippy::disallowed_methods=std::thread::sleep`). The step fails when a
named lint does not fire, or when any error matches no argument: a fixture
that no longer compiles exits non-zero too, and that is not a pass.
"""
import json
import subprocess
import sys

manifest, wanted = sys.argv[1], sys.argv[2:]
out = subprocess.run(
    ["cargo", "clippy", "--offline", "--quiet", "--manifest-path", manifest,
     "--target-dir", "target/clippybad", "--message-format=json",
     "--", "-D", "warnings"],
    capture_output=True, text=True,
).stdout

errors = []
for line in out.splitlines():
    msg = json.loads(line)
    if msg.get("reason") != "compiler-message":
        continue
    m = msg["message"]
    if m["level"] != "error" or not m["spans"]:
        continue
    code = (m["code"] or {}).get("code", "")
    source = " ".join(t["text"] for s in m["spans"] if s["is_primary"] for t in s["text"])
    errors.append((code, m["message"] + " " + source, m["rendered"]))

def matches(spec, err):
    code, _, text = spec.partition("=")
    return err[0] == code and text in err[1]

failed = False
for spec in wanted:
    hits = [e for e in errors if matches(spec, e)]
    print(f"{'ok' if hits else 'MISSING':>7}  {spec}")
    failed |= not hits
for err in errors:
    if not any(matches(spec, err) for spec in wanted):
        print(f"unexpected: {err[2]}", end="")
        failed = True
sys.exit(1 if failed else 0)
