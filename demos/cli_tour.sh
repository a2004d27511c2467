#!/bin/sh
# A quick tour of the command-line front end.  Exit codes: 0 definite,
# 2 out of fuel (Unknown), 1 bad usage or input.  Every report starts with
# a header of resolved inputs, so any run can be reproduced from its own
# output.
#
# Run: sh demos/cli_tour.sh
# From a source checkout without the installed `graphends` command, the tour
# runs the module instead: PYTHONPATH=src sh demos/cli_tour.sh
# The tour stops at the first exit code other than 0 or 2.
set -e

command -v graphends > /dev/null || graphends() { python3 -m graphends.cli "$@"; }

run() {
    echo
    echo "\$ graphends $*"
    graphends "$@" || { rc=$?; [ "$rc" -eq 2 ] || exit "$rc"; echo "(exit 2)"; }
}

run ball --graph lines-with-sticks:halt@3 --radius 4

run decide-comp --graph lines-with-sticks:halt@3 --edges "(0,1)" \
    --ends 2 --witness "(5,6)"

run decide-comp --graph int-line --edges "(0,1)" --ends 2 --witness auto

run boundary --graph cycle-chain:events@2,5 --edges "(6,7)" \
    --ends 2 --witness "(7,8);(-8,-7)"

run euler-check --graph delta2:changes@2,5,9 --mode two-way \
    --ends 2 --witness "(11,12);(-12,-11)" \
    --parity-radius 12 --loc-radius 12

run euler-check --graph pi1-line:halt@4 --mode two-way --ends 1 --parity-radius 7

run greedy-path --graph cycle-chain:events-all --start 0 --length 12 --ends 1

run automatic-eval --presentation grid \
    --formula "(forall u (exists-even v (adj u v)))"

run ends-from-sepmax --graph rays2:events@2 --ends 3 --fuel-radius 12

# Unknown is an honest answer, not an error: separation can only be
# refuted by a finite search, never confirmed by one.
run sep-semidecide --graph int-line --edges "(0,1)" --fuel-radius 6

echo
echo "(done)"
