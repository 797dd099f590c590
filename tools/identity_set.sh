#!/usr/bin/env bash
# Byte-compare two v2d binaries on the identity set.
#
#   tools/identity_set.sh PARENT_V2D CHANGE_V2D
#
# Runs the thirteen identity-set configurations (ROADMAP.md) with both
# binaries, each with --checkpoint, and compares stdout (minus the
# "checkpoint written to" line) and the checkpoint file byte for byte.
# Prints one line per configuration and exits 1 on any difference or
# failed run.  Both binaries run from their own scratch directory with the
# same relative checkpoint name, so nothing path-dependent differs.  The
# whole set takes under a minute on a 4-core host.
set -u

if [ $# -ne 2 ]; then
  echo "usage: $0 PARENT_V2D CHANGE_V2D" >&2
  exit 2
fi
parent=$(realpath "$1") || exit 2
change=$(realpath "$2") || exit 2
for bin in "$parent" "$change"; do
  [ -x "$bin" ] || { echo "$0: not an executable: $bin" >&2; exit 2; }
done

work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT
mkdir -p "$work/parent" "$work/change"

# name|arguments; gaussian-pulse is v2d's default problem.
configs=(
  "table1-1x1|--compilers gnu,fujitsu,cray,cray-noopt --steps 10"
  "table1-5x4|--compilers gnu,fujitsu,cray,cray-noopt --steps 10 --nprx1 5 --nprx2 4"
  "plan-2x2|--steps 6 --fuse plan --nprx1 2 --nprx2 2"
  "mg-jacobi-2x2|--nx1 128 --nx2 64 --steps 4 --precond mg --nprx1 2 --nprx2 2"
  "mg-chebyshev-plan|--nx1 128 --nx2 64 --steps 4 --precond mg --mg-smoother chebyshev --fuse plan"
  "classic-interpret|--nx1 64 --nx2 32 --steps 3 --ganged 0 --vla-exec interpret"
  "plan-interpret|--nx1 64 --nx2 32 --steps 3 --fuse plan --vla-exec interpret --nprx1 2 --nprx2 1"
  "jacobi-vl128|--steps 6 --precond jacobi --vector-bits 128"
  "jacobi-vl2048-plan|--steps 6 --precond jacobi --vector-bits 2048 --fuse plan"
  "two-species-relax|--problem two-species-relax --steps 6"
  "sedov-2x2|--problem sedov-radhydro --nx1 48 --nx2 48 --steps 6 --nprx1 2 --nprx2 2"
  "hotspot-4t-plan|--problem hotspot-absorber --steps 6 --host-threads 4 --fuse plan"
  "spai-clang-cray|--steps 6 --precond spai --compilers clang,cray"
)

# run SIDE BINARY NAME ARGS...: stdout to NAME.out, checkpoint to NAME.h5l.
run() {
  local side=$1 bin=$2 name=$3
  shift 3
  (cd "$work/$side" &&
    "$bin" "$@" --checkpoint "$name.h5l" > "$name.raw" 2> "$name.err")
  local rc=$?
  grep -v '^checkpoint written to ' "$work/$side/$name.raw" \
    > "$work/$side/$name.out"
  return $rc
}

status=0
for entry in "${configs[@]}"; do
  name=${entry%%|*}
  read -r -a args <<< "${entry#*|}"
  failed=""
  run parent "$parent" "$name" "${args[@]}" || failed+=" parent-exit"
  run change "$change" "$name" "${args[@]}" || failed+=" change-exit"
  if [ -n "$failed" ]; then
    printf 'FAILED     %-20s%s\n' "$name" "$failed"
    status=1
    continue
  fi
  diffs=""
  cmp -s "$work/parent/$name.out" "$work/change/$name.out" || diffs+=" stdout"
  cmp -s "$work/parent/$name.h5l" "$work/change/$name.h5l" ||
    diffs+=" checkpoint"
  if [ -n "$diffs" ]; then
    printf 'DIFFERENT  %-20s%s\n' "$name" "$diffs"
    status=1
  else
    printf 'identical  %s\n' "$name"
  fi
done
exit $status
