#!/usr/bin/env bash
# Thread parity of `ta summary` and `ta convert`. At --threads 1 (the
# serial path) and --threads 4 (sharded ingest, the parallel model
# builder and the pooled v3 block encoder):
#   - `ta summary`, strict and --salvage, must print the same stdout
#     and exit with the same code;
#   - `ta convert --compress` must exit with the same code and, where
#     both runs exit 0, write the same bytes.
# Damaged inputs exercise the strict error paths and the lenient
# per-slice event counts.
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

# Judge one pair: the runs' stderr is in $tmp/e1 and $tmp/e4, their
# exit codes are $2 and $3, and the files $4 and $5 must be equal.
judge() {
    local what="$1" rc1="$2" rc4="$3" a="$4" b="$5"
    pairs=$((pairs + 1))
    if grep -q Sanitizer "$tmp/e1" "$tmp/e4"; then
        bad=$((bad + 1))
        echo "thread parity: $what: sanitizer report:"
        cat "$tmp/e1" "$tmp/e4"
    elif [ "$rc1" != "$rc4" ] || ! cmp -s "$a" "$b"; then
        bad=$((bad + 1))
        echo "thread parity: $what: exit $rc1 vs $rc4" \
             "$(cmp -s "$a" "$b" || echo ', output differs')"
    elif [ "$rc1" = 0 ]; then
        ok=$((ok + 1))
    fi
}

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
        judge "$f ($mode)" "$rc1" "$rc4" "$tmp/t1" "$tmp/t4"
    done

    rm -f "$tmp/o1" "$tmp/o4"
    "$ta" --threads 1 convert "$f" "$tmp/o1" --compress \
        > /dev/null 2> "$tmp/e1"
    rc1=$?
    "$ta" --threads 4 convert "$f" "$tmp/o4" --compress \
        > /dev/null 2> "$tmp/e4"
    rc4=$?
    if [ "$rc1" = 0 ] && [ "$rc4" = 0 ]; then
        judge "$f (convert)" "$rc1" "$rc4" "$tmp/o1" "$tmp/o4"
    else
        judge "$f (convert)" "$rc1" "$rc4" /dev/null /dev/null
    fi
done

echo "thread parity: $((pairs - bad)) of $pairs pairs match" \
     "($ok of them exit 0)"
[ "$ok" -gt 0 ] && [ "$bad" -eq 0 ]
