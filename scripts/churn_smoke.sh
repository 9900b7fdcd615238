#!/bin/sh
# Deletion-protocol smoke: run cmd/ingest with -churn over a deterministic
# RMAT dataset for every witness-carrying algorithm, verifying each
# converged result against a static recompute of the surviving topology
# (-verify walks the live post-delete graph, so any vertex left holding a
# value its deleted witness fed it fails the diff). Then a determinism
# check: the same churn seed must produce byte-identical -dump files at
# different rank counts — the invalidation cascades may race internally,
# but the converged fixpoint is a function of the surviving topology only.
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

# Determinism across rank counts: same churn stream, different parallelism,
# identical converged values. Any scheduling-dependent residue left by an
# invalidation cascade shows up as a diff.
echo "churn-smoke: determinism check (bfs at 1 vs 4 ranks, same churn seed)"
"$tmp/ingest" -rmat "$SCALE" -ranks 1 -algo bfs \
	-churn "$CHURN" -churn.seed "$SEED" \
	-dump "$tmp/bfs-r1.txt" >"$tmp/bfs-r1.log" 2>&1 || {
	echo "churn-smoke: 1-rank reference run failed" >&2
	sed 's/^/  bfs-r1: /' "$tmp/bfs-r1.log" >&2
	exit 1
}
sort -n "$tmp/bfs-r1.txt" >"$tmp/bfs-r1.sorted"
sort -n "$tmp/bfs-r4.txt" >"$tmp/bfs-r4.sorted"
if ! diff -u "$tmp/bfs-r1.sorted" "$tmp/bfs-r4.sorted" >"$tmp/diff.txt"; then
	echo "churn-smoke: FAIL — converged values differ between 1 and 4 ranks:" >&2
	head -40 "$tmp/diff.txt" >&2
	exit 1
fi
echo "churn-smoke: OK — 4 algorithms verified under churn; $(wc -l <"$tmp/bfs-r1.sorted" | tr -d ' ') vertices identical across rank counts"
