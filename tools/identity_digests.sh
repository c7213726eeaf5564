#!/usr/bin/env bash
# Byte-identity digests of the standard run matrix.
#
# Usage: tools/identity_digests.sh BUILD_DIR
#
# Runs every command of the identity table against the binaries in
# BUILD_DIR/tools and prints one markdown row per run: the command and
# the first 16 hex digits of the sha256 of its stdout. A refactor that
# claims to be behaviour-identical must print the same table before and
# after; diff the output of two build directories to check:
#
#   tools/identity_digests.sh build-before > before.md
#   tools/identity_digests.sh build-after > after.md
#   diff before.md after.md
#
# The expected table is checked in as tools/identity_digests.expected
# and tools/ci.sh diffs a Release build's output against it, so a
# change that moves any row fails CI until the table is updated (and
# the change explained).
#
# The matrix: `cnvm_sim --stats` for all 7 designs at 1, 4 and 8
# channels; `cnvm_sim --stats --verify` crashed at half the run with
# the integrity tree, for all 7 designs at 1 and 4 channels (the
# in-place crash path, its crash_dropped_* stats and its recovery);
# `cnvm_crash_sweep --fingerprint` with faults, replays and the
# integrity tree, at --jobs 1 and 4 and --channels 1 and 4; one sweep
# over a 4 MB region, whose persisted image spans more than one
# LineTable directory chunk (512 pages x 64 lines = 2 MB of data
# lines), so sharing and cloning pages across chunks is pinned too; and
# two `cnvm_soak --fingerprint` chains. No row depends on the host's
# thread count (the sweeps name --jobs; the rest default to one
# thread). A run that exits non-zero gets its exit status appended to
# its row.

set -u -o pipefail

if [[ $# -ne 1 ]]; then
    echo "usage: $0 BUILD_DIR" >&2
    exit 2
fi
tools="$1/tools"
for bin in cnvm_sim cnvm_crash_sweep cnvm_soak; do
    if [[ ! -x "$tools/$bin" ]]; then
        echo "$0: $tools/$bin not found (build the tools first)" >&2
        exit 2
    fi
done

# row BIN ARGS... — runs one command and prints its table row.
row() {
    local bin="$1"
    shift
    local digest status
    digest=$("$tools/$bin" "$@" | sha256sum | cut -c1-16)
    status=$?
    if [[ $status -eq 0 ]]; then
        echo "| \`$bin $*\` | $digest |"
    else
        echo "| \`$bin $*\` | $digest (exit $status) |"
    fi
}

echo "| run | digest |"
echo "|---|---|"
for channels in 1 4 8; do
    for design in NoEncryption Ideal Colocated ColocatedCC FCA SCA Unsafe; do
        row cnvm_sim --stats --design "$design" --channels "$channels"
    done
done
for channels in 1 4; do
    for design in NoEncryption Ideal Colocated ColocatedCC FCA SCA Unsafe; do
        row cnvm_sim --stats --verify --design "$design" \
            --channels "$channels" --footprint-mb 1 --txns 100 \
            --crash-at-frac 0.5 --integrity-tree
    done
done
for jobs in 1 4; do
    for channels in 1 4; do
        row cnvm_crash_sweep --fingerprint --faults --replays \
            --integrity-tree --jobs "$jobs" --channels "$channels"
    done
done
row cnvm_crash_sweep --footprint-kb 4096 --points 16 --faults --replays \
    --integrity-tree --fingerprint --jobs 4
row cnvm_soak --fingerprint
row cnvm_soak --fingerprint --faults --replays --integrity-tree --channels 4
