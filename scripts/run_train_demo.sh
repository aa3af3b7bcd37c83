#!/usr/bin/env sh
# Teacher/student reconstruction: bilinear vs pyramid-upsampler student.
# Takes about 7 s on a 2-core machine at the default 3 seeds x 200 steps.
set -e
python3 -m jpulite.cli train-demo --pretty "$@"
