#!/bin/sh
# Two sets of reports of the same commit must agree: every end-to-end metric
# on every workload within its bound, and the exact counts of the exactly
# repeating workloads identical. The sets alternate, PAIRS (default 2)
# reports each, so that a drift of the box falls on both. A metric whose
# spread within the first set is wider than its bound is listed as
# unresolved: more PAIRS estimate the spread better (two values give 1.5
# times their distance). Run from anywhere; arguments go to every run, e.g.
#   PAIRS=3 bench/run.sh -seconds 8
set -eu
cd "$(dirname "$0")/.."
out=bench/out
mkdir -p "$out"
go build -o "$out/igbench" ./bench/cmd/igbench
a="" b=""
for i in $(seq "${PAIRS:-2}"); do
	"$out/igbench" "$@" -out "$out/set-a-$i.json"
	"$out/igbench" "$@" -out "$out/set-b-$i.json"
	a="$a $out/set-a-$i.json" b="$b $out/set-b-$i.json"
done
# $a and $b are lists of paths without spaces.
# shellcheck disable=SC2086
agree=0
"$out/igbench" -compare $a -- $b >"$out/compare.txt" || agree=$?
cat "$out/compare.txt"
case "$agree" in
0) echo "bench/run.sh: the two sets agree" ;;
3) echo "bench/run.sh: the two sets agree where the first set's own spread lets it be told; see the unresolved rows" ;;
*)
	echo "bench/run.sh: the two sets disagree" >&2
	exit 1
	;;
esac
