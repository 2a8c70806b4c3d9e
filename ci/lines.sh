#!/usr/bin/env bash
# Per-crate non-test line counts, base → change: `starfish-lint`'s
# `non_test_lines` (physical lines of crates/*/src outside test code) for
# the tree at a base revision and for the working tree, one line per crate,
# then the workspace total and its delta, the number of workspace crates
# (`crates`: the directories of crates/ with a manifest), and the panic-lint
# `#[expect]` attributes in crates/*/src (`panic_expects`: the panic
# surface's ratchet, one per surviving site or function). Report only: it
# exits 0 whatever the numbers say.
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

python3 - "$base" "$tmp/base.json" "$tmp/change.json" "$tmp/base" "$root" <<'EOF'
import json, pathlib, re, sys

name, base, change = sys.argv[1], *(json.load(open(p))["stats"] for p in sys.argv[2:4])
panic_lints = ("indexing_slicing", "unwrap_used", "expect_used", "panic", "unreachable",
               "todo", "unimplemented")
expect = re.compile(r"#\[expect\((.*?)\)\]", re.S)
def panic_expects(tree):
    return sum(any(f"clippy::{lint}," in attr for lint in panic_lints)
               for f in pathlib.Path(tree).glob("crates/*/src/**/*.rs")
               for attr in expect.findall(f.read_text()))

row = lambda label, b, c: print(f"  {label:<12} {b:>7} -> {c:>7}  {c - b:+d}")
print(f"non_test_lines, {name} -> working tree")
lines_b, lines_c = base["non_test_lines"], change["non_test_lines"]
for crate in sorted(set(lines_b) | set(lines_c)):
    row(crate, lines_b.get(crate, 0), lines_c.get(crate, 0))
row("workspace", sum(lines_b.values()), sum(lines_c.values()))
row("crates", *(len(list(pathlib.Path(t).glob("crates/*/Cargo.toml"))) for t in sys.argv[4:]))
row("panic_expects", *map(panic_expects, sys.argv[4:]))
EOF
