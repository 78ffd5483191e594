#!/bin/sh
# Run every onramp command in a fresh interpreter under `python -W error`, from the root
# of a checkout: a handler that works only after another command has imported its module
# fails here.  Usage: sh tests/one_process_per_command.sh [python]
set -eu
python=${1:-python}
export PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}"
mkdir -p .bench_build
config="--config demos/onramp.json"
interval="--e-lower 0.5 --e-upper 2"
run() { "$python" -W error -m onramp "$@"; }
run analyze $config $interval
run equilibrium $config --alpha 0.8 --beta 1
run poa $config --beta 1 $interval
run optimal-beta $config $interval
# the beta* oracle in any unit: a narrow interval, and one whose e_lower is tiny
run optimal-beta $config --e-lower 0.001 --e-upper 0.01 --verify
run poa $config --beta 1 --e-lower 1e-6 --e-upper 1 --verify
run sweep-alpha $config --out .bench_build/alpha.csv
run sweep-beta-e $config --out .bench_build/level.csv
# --out is written over the old file: a shorter sweep leaves no stale tail
run sweep-alpha $config --out .bench_build/level.csv
run sweep-alpha $config > .bench_build/alpha_stdout.csv
cmp .bench_build/level.csv .bench_build/alpha_stdout.csv
# level crossings that jitter in floats: the level kernel scans them, to --out and to stdout
run sweep-beta-e $config --alpha 0.63 --beta-e-max 4e20 --step 1e18 --out .bench_build/scan.csv
run sweep-beta-e $config --alpha 0.63 --beta-e-max 4e20 --step 1e18 > .bench_build/scan_stdout.csv
cmp .bench_build/scan.csv .bench_build/scan_stdout.csv
# a last level one ulp below --beta-e-max is printed once, not twice
run sweep-beta-e $config --alpha 0.8 --beta-e-max 106362220.71023792 --step 4624444.378705996 \
    > .bench_build/last_level.csv
test -z "$(uniq -d .bench_build/last_level.csv)"
run verify $config
run verify $config --alpha 0.8 --beta 1000
# the Wardrop certificate at large levels, up to near the level bound
run verify $config --alpha 0.8 --beta 1e6
run verify $config --alpha 0.8 --beta 5e307
