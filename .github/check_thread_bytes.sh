#!/usr/bin/env bash
# Validate each CONFIG, run it with `coorbit run` at the default thread count
# (the usable cores) and at --threads 1, 2 and 3, and fail unless report.json
# and every CSV of each threaded run are byte-identical to the default run's.
#
# usage: bash .github/check_thread_bytes.sh OUTDIR CONFIG...
#
# Runs go to OUTDIR/<config name> and OUTDIR/<config name>-t<threads>.
# COORBIT replaces the installed entry point, e.g. from a source checkout:
#   PYTHONPATH=src COORBIT="python -m coorbit.cli" bash .github/check_thread_bytes.sh out configs/*.json
set -u
shopt -s nullglob
coorbit=${COORBIT:-coorbit}
outdir=$1
shift
for cfg in "$@"; do
  out="$outdir/$(basename "$cfg" .json)"
  $coorbit validate "$cfg" || exit 1
  $coorbit run "$cfg" --out "$out" || exit 1
  for t in 1 2 3; do
    $coorbit run "$cfg" --out "$out-t$t" --threads "$t" || exit 1
  done
  for f in "$out"/report.json "$out"/*.csv; do
    for t in 1 2 3; do
      cmp "$f" "$out-t$t/${f##*/}" || exit 1
    done
  done
  echo "$cfg: report.json and CSVs identical at --threads default, 1, 2, 3"
done
