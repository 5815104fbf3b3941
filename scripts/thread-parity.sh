#!/usr/bin/env bash
# Thread parity of `ta summary`: at --threads 1 (the serial path) and
# --threads 4 (sharded ingest and the parallel model builder), strict
# and --salvage, every trace must print the same stdout and exit with
# the same code. Damaged inputs exercise the strict error paths and the
# lenient per-slice event counts.
#
#   scripts/thread-parity.sh <ta> <trace.pdt | dir>...
#
# A directory stands for the *.pdt files in it. Prints one line per
# differing pair and a count. Exits 1 if any pair differs, if a run
# printed a sanitizer report (a sanitizer's exit code can equal ta's
# read-error code, so exit codes alone would not show it), or if no
# pair ran cleanly (every run failing the same way is not parity);
# exits 2 on bad usage or a missing <ta>.

set -uo pipefail

if [ $# -lt 2 ]; then
    echo "usage: $0 <ta> <trace.pdt | dir>..." >&2
    exit 2
fi
ta="$1"
shift
if [ ! -x "$ta" ]; then
    echo "$0: $ta is not an executable" >&2
    exit 2
fi

tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT

traces=()
for arg in "$@"; do
    if [ -d "$arg" ]; then
        for f in "$arg"/*.pdt; do
            [ -e "$f" ] && traces+=("$f")
        done
    else
        traces+=("$arg")
    fi
done

pairs=0
bad=0
ok=0
for f in ${traces[@]+"${traces[@]}"}; do
    for mode in strict salvage; do
        flags=()
        [ "$mode" = salvage ] && flags=(--salvage)
        "$ta" ${flags[@]+"${flags[@]}"} --threads 1 summary "$f" \
            > "$tmp/t1" 2> "$tmp/e1"
        rc1=$?
        "$ta" ${flags[@]+"${flags[@]}"} --threads 4 summary "$f" \
            > "$tmp/t4" 2> "$tmp/e4"
        rc4=$?
        pairs=$((pairs + 1))
        if grep -q Sanitizer "$tmp/e1" "$tmp/e4"; then
            bad=$((bad + 1))
            echo "thread parity: $f ($mode): sanitizer report:"
            cat "$tmp/e1" "$tmp/e4"
        elif [ "$rc1" != "$rc4" ] || ! cmp -s "$tmp/t1" "$tmp/t4"; then
            bad=$((bad + 1))
            echo "thread parity: $f ($mode): exit $rc1 vs $rc4" \
                 "$(cmp -s "$tmp/t1" "$tmp/t4" || echo ', stdout differs')"
        elif [ "$rc1" = 0 ]; then
            ok=$((ok + 1))
        fi
    done
done

echo "thread parity: $((pairs - bad)) of $pairs pairs match" \
     "($ok of them exit 0)"
[ "$ok" -gt 0 ] && [ "$bad" -eq 0 ]
