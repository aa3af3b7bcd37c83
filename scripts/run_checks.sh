#!/usr/bin/env sh
# Tier-1 tests, then the benchmark's self-tests. Tier-1's testpaths leave out
# perfbench/, whose tests pin library names (experiments.stride_stage,
# experiments.conv2d_backward), so a change can pass tier-1 and still break them.
# Both suites always run; the exit status is the last failing suite's, so
# criterion 4b's honest failure alone makes it nonzero. Run from the repository root.
status=0
PYTHONPATH=src${PYTHONPATH:+:$PYTHONPATH} python -m pytest -q --continue-on-collection-errors "$@" || status=$?
python3 -m pytest -q perfbench || status=$?
exit $status
