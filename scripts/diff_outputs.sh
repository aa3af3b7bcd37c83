#!/usr/bin/env sh
# Compare this checkout's outputs with those of a commit: an empty diff is the
# check a refactor that must not change any output passes.
#
#   scripts/diff_outputs.sh [REV]   # REV defaults to HEAD
#
# Extracts REV with `git archive` into a temporary directory, runs this
# checkout's scripts/capture_outputs.py on both trees (working-tree changes
# included on this side), prints `diff -r` of the two captures, removes the
# temporary directory and exits with diff's status: 0 identical, 1 outputs
# differ, 2 trouble, which includes a capture that exits nonzero on this
# side. A capture that fails on REV only shows in the diff, since an older
# REV may lack what a newer capture calls.
set -u
if [ $# -gt 1 ]; then
    echo "usage: $0 [REV]" >&2
    exit 2
fi
rev=${1:-HEAD}
cd "$(dirname "$0")/.." || exit 2
if ! git rev-parse -q --verify "$rev^{commit}" >/dev/null; then
    echo "error: $rev names no commit" >&2
    exit 2
fi
tmp=$(mktemp -d) || exit 2
trap 'rm -rf "$tmp"' EXIT
trap 'exit 2' HUP INT TERM
mkdir "$tmp/tree" && git archive "$rev" | tar -x -C "$tmp/tree" || exit 2
cp scripts/capture_outputs.py "$tmp/tree/scripts/capture_outputs.py" || exit 2
python3 "$tmp/tree/scripts/capture_outputs.py" "$tmp/base"
[ $? -le 1 ] || exit 2
python3 scripts/capture_outputs.py "$tmp/work"
work=$?
diff -r "$tmp/base" "$tmp/work"
status=$?
[ $work -eq 0 ] || status=2
exit $status
