#!/bin/sh
# Compare the deterministic outputs of the working tree with those of a
# revision: run tools/deterministic_outputs.sh in a temporary git worktree
# of REV, with that revision's own script, and in the working tree,
# uncommitted changes included, then print `diff -r` of the two output
# directories, as base/ (REV) and work/ (the working tree).  The worktree
# and the outputs are removed on exit.
#
# Usage: tools/diff_outputs.sh REV
# Exit status: 0 when the outputs are identical, 1 when they differ, and
# that of the failing command when a run fails (2 for a usage error).
set -eu
if [ $# -ne 1 ]; then
    echo "usage: $0 REV" >&2
    exit 2
fi
root=$(cd "$(dirname "$0")/.." && pwd)
tmp=$(mktemp -d)
cleanup() {
    git -C "$root" worktree remove --force "$tmp/checkout" 2>/dev/null \
        || true
    rm -rf "$tmp"
    git -C "$root" worktree prune
}
trap cleanup EXIT
trap 'exit 130' INT TERM

git -C "$root" worktree add --detach --quiet "$tmp/checkout" "$1"
"$tmp/checkout/tools/deterministic_outputs.sh" "$tmp/base"
"$root/tools/deterministic_outputs.sh" "$tmp/work"
cd "$tmp"
status=0
diff -r base work || status=$?
exit "$status"
