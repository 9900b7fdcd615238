#!/bin/sh
# Deletion-protocol smoke: run cmd/ingest with -churn over a deterministic
# RMAT dataset for every witness-carrying algorithm, verifying each
# converged result against a static recompute of the surviving topology
# (-verify walks the live post-delete graph, so any vertex left holding a
# value its deleted witness fed it fails the diff). Then a determinism
# check: the same churn seed must produce byte-identical -dump files at
# different rank counts — the invalidation cascades may race internally,
# but the converged fixpoint is a function of the surviving topology only.
# cc also runs at 1 rank, where unsafe deletes mostly re-point their witness
# instead of flooding: that run must -verify, report re-pointed deletes, and
# dump byte-identically to the 4-rank cc run.
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

# A 1-rank cc run keeps every witness chain on one rank, so most unsafe
# deletes re-point their witness at a certified parent instead of flooding
# (at 4 ranks most chains leave the rank and flood). It must -verify, and its
# report must show the re-pointing path was taken.
echo "churn-smoke: cc (1 rank, static -verify, witness re-pointing)"
"$tmp/ingest" -rmat "$SCALE" -ranks 1 -algo cc \
	-churn "$CHURN" -churn.seed "$SEED" -verify \
	-dump "$tmp/cc-r1.txt" >"$tmp/cc-r1.log" 2>&1 || {
	echo "churn-smoke: FAIL — 1-rank cc diverged from the static oracle:" >&2
	sed 's/^/  cc-r1: /' "$tmp/cc-r1.log" >&2
	exit 1
}
repointed="$(sed -n 's/^cascades:.*, \([^ ]*\) deletes re-witnessed$/\1/p' "$tmp/cc-r1.log")"
if [ -z "$repointed" ] || [ "$repointed" = 0 ]; then
	echo "churn-smoke: FAIL — 1-rank cc re-pointed no witness (report: '${repointed:-no cascades line}')" >&2
	exit 1
fi
echo "  cc-r1: $repointed deletes re-witnessed"

# Determinism across rank counts: same churn stream, different parallelism,
# identical converged values. Any scheduling-dependent residue left by an
# invalidation cascade shows up as a diff. For cc the two sides resolve
# unsafe deletes differently (mostly re-pointing at 1 rank, mostly flooding
# at 4), so the diff also checks the two mechanisms against each other.
echo "churn-smoke: determinism check (bfs at 1 vs 4 ranks, same churn seed)"
"$tmp/ingest" -rmat "$SCALE" -ranks 1 -algo bfs \
	-churn "$CHURN" -churn.seed "$SEED" \
	-dump "$tmp/bfs-r1.txt" >"$tmp/bfs-r1.log" 2>&1 || {
	echo "churn-smoke: 1-rank reference run failed" >&2
	sed 's/^/  bfs-r1: /' "$tmp/bfs-r1.log" >&2
	exit 1
}
for algo in bfs cc; do
	sort -n "$tmp/$algo-r1.txt" >"$tmp/$algo-r1.sorted"
	sort -n "$tmp/$algo-r4.txt" >"$tmp/$algo-r4.sorted"
	if ! diff -u "$tmp/$algo-r1.sorted" "$tmp/$algo-r4.sorted" >"$tmp/diff.txt"; then
		echo "churn-smoke: FAIL — $algo converged values differ between 1 and 4 ranks:" >&2
		head -40 "$tmp/diff.txt" >&2
		exit 1
	fi
done
echo "churn-smoke: OK — 4 algorithms verified under churn; bfs ($(wc -l <"$tmp/bfs-r1.sorted" | tr -d ' ') vertices) and cc ($(wc -l <"$tmp/cc-r1.sorted" | tr -d ' ') vertices) identical across rank counts"
