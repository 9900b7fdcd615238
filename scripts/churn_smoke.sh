#!/bin/sh
# Deletion-protocol smoke: run cmd/ingest with -churn over a deterministic
# RMAT dataset for every witness-carrying algorithm, verifying each
# converged result against a static recompute of the surviving topology
# (-verify walks the live post-delete graph, so any vertex left holding a
# value its deleted witness fed it fails the diff). Then a determinism
# check: the same churn seed must produce byte-identical -dump files at
# different rank counts — the invalidation cascades may race internally,
# but the converged fixpoint is a function of the surviving topology only.
# cc and st also run at 1 rank, where unsafe deletes mostly re-point their
# witness instead of flooding: those runs must -verify, report re-pointed
# deletes, and dump identically to the 4-rank runs.
#
# Environment:
#   SCALE  rmat scale (default 10)
#   CHURN  per-add delete probability handed to gen.Churn (default 0.2)
#   SEED   churn interleaving seed (default 7)
set -eu

SCALE="${SCALE:-10}"
CHURN="${CHURN:-0.2}"
SEED="${SEED:-7}"
GO="${GO:-go}"

cd "$(dirname "$0")/.."
tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT

echo "churn-smoke: building cmd/ingest"
"$GO" build -o "$tmp/ingest" ./cmd/ingest

for algo in bfs sssp cc st; do
	echo "churn-smoke: $algo (rmat $SCALE, churn $CHURN, seed $SEED, 4 ranks, static -verify)"
	"$tmp/ingest" -rmat "$SCALE" -ranks 4 -algo "$algo" \
		-churn "$CHURN" -churn.seed "$SEED" -verify \
		-dump "$tmp/$algo-r4.txt" >"$tmp/$algo.log" 2>&1 || {
		echo "churn-smoke: FAIL — $algo diverged from the static oracle:" >&2
		sed "s/^/  $algo: /" "$tmp/$algo.log" >&2
		exit 1
	}
	grep '^verify:' "$tmp/$algo.log" | sed 's/^/  /'
done

# A 1-rank run keeps every witness chain on one rank, so most unsafe deletes
# re-point their witness at a certified parent instead of flooding (at 4
# ranks most chains leave the rank and flood). For cc and for st (one
# witness lane per source bit) it must -verify, and its report must show the
# re-pointing path was taken.
for algo in cc st; do
	echo "churn-smoke: $algo (1 rank, static -verify, witness re-pointing)"
	"$tmp/ingest" -rmat "$SCALE" -ranks 1 -algo "$algo" \
		-churn "$CHURN" -churn.seed "$SEED" -verify \
		-dump "$tmp/$algo-r1.txt" >"$tmp/$algo-r1.log" 2>&1 || {
		echo "churn-smoke: FAIL — 1-rank $algo diverged from the static oracle:" >&2
		sed "s/^/  $algo-r1: /" "$tmp/$algo-r1.log" >&2
		exit 1
	}
	repointed="$(sed -n 's/^cascades:.*, \([^ ]*\) deletes re-witnessed$/\1/p' "$tmp/$algo-r1.log")"
	if [ -z "$repointed" ] || [ "$repointed" = 0 ]; then
		echo "churn-smoke: FAIL — 1-rank $algo re-pointed no witness (report: '${repointed:-no cascades line}')" >&2
		exit 1
	fi
	echo "  $algo-r1: $repointed deletes re-witnessed"
done

# Determinism across rank counts: same churn stream, different parallelism,
# identical converged values. Any scheduling-dependent residue left by an
# invalidation cascade shows up as a diff. For cc and st the two sides
# resolve unsafe deletes differently (mostly re-pointing at 1 rank, mostly
# flooding at 4), so the diff also checks the two mechanisms against each
# other.
echo "churn-smoke: determinism check (bfs, cc and st at 1 vs 4 ranks, same churn seed)"
"$tmp/ingest" -rmat "$SCALE" -ranks 1 -algo bfs \
	-churn "$CHURN" -churn.seed "$SEED" \
	-dump "$tmp/bfs-r1.txt" >"$tmp/bfs-r1.log" 2>&1 || {
	echo "churn-smoke: 1-rank reference run failed" >&2
	sed 's/^/  bfs-r1: /' "$tmp/bfs-r1.log" >&2
	exit 1
}
for algo in bfs cc st; do
	sort -n "$tmp/$algo-r1.txt" >"$tmp/$algo-r1.sorted"
	sort -n "$tmp/$algo-r4.txt" >"$tmp/$algo-r4.sorted"
	if ! diff -u "$tmp/$algo-r1.sorted" "$tmp/$algo-r4.sorted" >"$tmp/diff.txt"; then
		echo "churn-smoke: FAIL — $algo converged values differ between 1 and 4 ranks:" >&2
		head -40 "$tmp/diff.txt" >&2
		exit 1
	fi
done
echo "churn-smoke: OK — 4 algorithms verified under churn; bfs ($(wc -l <"$tmp/bfs-r1.sorted" | tr -d ' ') vertices), cc ($(wc -l <"$tmp/cc-r1.sorted" | tr -d ' ')) and st ($(wc -l <"$tmp/st-r1.sorted" | tr -d ' ')) identical across rank counts"
