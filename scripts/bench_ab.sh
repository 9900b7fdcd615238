#!/bin/sh
# A/B benchmark of the working tree against another revision on one igbench
# workload. Builds igbench from BASE (checked out into a temporary git
# worktree) and from the working tree, runs workload W PAIRS times on each
# side — alternating which side goes first, so a drift of the box falls on
# both — and prints
#
#	igbench -compare parent-*.json -- change-*.json
#
# Reports, run logs and the comparison land in bench/out/ab/. Exits 0 when
# nothing got worse by more than its bound (unresolved rows included, as in
# bench/run.sh), 1 when something did or a run failed its oracle check.
# Further arguments go to every igbench run, e.g.
#
#	BASE=HEAD~1 W=sssp-r2 PAIRS=4 scripts/bench_ab.sh -seconds 8
#
# Environment:
#   BASE   revision to compare against (default HEAD)
#   W      igbench workload (default con-r1; see bench/README.md)
#   PAIRS  runs per side (default 10)
set -eu

BASE="${BASE:-HEAD}"
W="${W:-con-r1}"
PAIRS="${PAIRS:-10}"
GO="${GO:-go}"

cd "$(dirname "$0")/.."
root="$PWD"
out=bench/out/ab
rm -rf "$out"
mkdir -p "$out"
tmp="$(mktemp -d)"
trap 'git worktree remove --force "$tmp/base" 2>/dev/null || true; rm -rf "$tmp"' EXIT

rev="$(git rev-parse --short "$BASE")"
git worktree add --quiet --detach "$tmp/base" "$rev"
echo "bench-ab: building igbench at $BASE ($rev) and from the working tree"
(cd "$tmp/base" && "$GO" build -o "$root/$out/igbench-parent" ./bench/cmd/igbench)
"$GO" build -o "$out/igbench-change" ./bench/cmd/igbench

# run SIDE I ARGS...: one igbench pass of workload W, its report kept as
# SIDE-I.json and its output as SIDE-I.log.
run() {
	side="$1" i="$2"
	shift 2
	echo "bench-ab: $W pair $i/$PAIRS: $side"
	"$out/igbench-$side" -workload "$W" -outdir "$out" -out "$out/$side-$i.json" "$@" \
		>"$out/$side-$i.log" 2>&1 || {
		echo "bench-ab: FAIL — $side run $i exited non-zero:" >&2
		tail -20 "$out/$side-$i.log" >&2
		exit 1
	}
}

parent="" change=""
for i in $(seq "$PAIRS"); do
	if [ $((i % 2)) -eq 1 ]; then
		run parent "$i" "$@"
		run change "$i" "$@"
	else
		run change "$i" "$@"
		run parent "$i" "$@"
	fi
	parent="$parent $out/parent-$i.json" change="$change $out/change-$i.json"
done

# $parent and $change are lists of paths without spaces.
# shellcheck disable=SC2086
status=0
"$out/igbench-change" -compare $parent -- $change >"$out/compare.txt" || status=$?
cat "$out/compare.txt"
case "$status" in
0) echo "bench-ab: nothing got worse than its bound ($BASE -> working tree, $W, $PAIRS pairs)" ;;
3) echo "bench-ab: nothing got worse where the parent's own spread lets it be told; see the unresolved rows" ;;
*)
	echo "bench-ab: the working tree is worse than $BASE on $W; see the rows above" >&2
	exit 1
	;;
esac
