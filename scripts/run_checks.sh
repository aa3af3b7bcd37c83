#!/usr/bin/env sh
# Tier-1 tests, the benchmark's self-tests, scripts/capture_outputs.py into a
# temporary directory (about 10 s; nonzero when a capture fails), then
# scripts/unreached_lines.py (about 5 s; nonzero when a captured command or a
# workload operation fails). Tier-1's testpaths leave out perfbench/, whose
# tests pin the library names listed under "Tests" in README.md, so a change
# can pass tier-1 and still break them. All four always run; the exit status
# is the last failing one's, so criterion 4b's honest failure alone makes it
# nonzero. Run from the repository root.
status=0
PYTHONPATH=src${PYTHONPATH:+:$PYTHONPATH} python -m pytest -q --continue-on-collection-errors "$@" || status=$?
python3 -m pytest -q perfbench || status=$?
out=$(mktemp -d) || exit 2
trap 'rm -rf "$out"' EXIT
python3 scripts/capture_outputs.py "$out" || status=$?
python3 scripts/unreached_lines.py || status=$?
exit $status
