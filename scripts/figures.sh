#!/bin/sh
# Runs every deterministic figure once and writes their rows to OUT.csv.
# The committed reference bench/ref/figures_quick.csv is this script's
# output; CI diffs a fresh run against it, so a change to the simulated
# schedule shows up as a reviewed diff. Regenerate the reference with
#
#   sh scripts/figures.sh bench/ref/figures_quick.csv
#
# (about 55 s on a shared 2-vCPU VM).
set -eu
if [ $# -ne 1 ]; then
  echo "usage: sh scripts/figures.sh OUT.csv" >&2
  exit 2
fi
case $1 in
  /*) out=$1 ;;
  *) out=$PWD/$1 ;;
esac
cd "$(dirname "$0")/.."
dune exec bench/main.exe -- --csv "$out" \
  --fig 6 --fig 7 --fig 8 --fig 9 --fig 10 --fig 11 --fig 12 \
  --fig 13 --fig 14 --fig 15 --fig 16 --fig 17 --fig 18 \
  --fig batch --fig read --fig open \
  --fig tenants --fig stream --fig gray > /dev/null
