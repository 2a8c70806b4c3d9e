#!/usr/bin/env bash
# Per-crate non-test line counts, base → change: `starfish-lint`'s
# `non_test_lines` (physical lines of crates/*/src outside test code) for
# the tree at a base revision and for the working tree, one line per crate,
# then the workspace total and its delta, then the lint's `lock_classes`
# and `panic_sites` the same way. Report only: it exits 0 whatever the
# numbers say.
#
#   ci/lines.sh [base]      # base defaults to HEAD^
#
# The base tree is unpacked with `git archive` into a temporary directory
# and analysed by the working tree's own `starfish-lint`, so both sides are
# counted by the same rules.
set -euo pipefail

base=${1:-HEAD^}
root=$(git rev-parse --show-toplevel)
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

cd "$root"
cargo build -q -p verify --bin starfish-lint
lint="${CARGO_TARGET_DIR:-$root/target}/debug/starfish-lint"

mkdir "$tmp/base"
git archive "$base" | tar -x -C "$tmp/base"
# Exit 1 means findings, which is not this report's business.
(cd "$tmp/base" && "$lint" --json "$tmp/base.json" >/dev/null) || true
"$lint" --json "$tmp/change.json" >/dev/null || true

python3 - "$base" "$tmp/base.json" "$tmp/change.json" <<'EOF'
import json, sys

name, base, change = sys.argv[1], *(json.load(open(p))["stats"] for p in sys.argv[2:])
row = lambda label, b, c: print(f"  {label:<12} {b:>7} -> {c:>7}  {c - b:+d}")
print(f"non_test_lines, {name} -> working tree")
lines_b, lines_c = base["non_test_lines"], change["non_test_lines"]
for crate in sorted(set(lines_b) | set(lines_c)):
    row(crate, lines_b.get(crate, 0), lines_c.get(crate, 0))
row("workspace", sum(lines_b.values()), sum(lines_c.values()))
for stat in ("lock_classes", "panic_sites"):
    row(stat, base[stat], change[stat])
EOF
