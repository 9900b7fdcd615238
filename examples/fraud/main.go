// Fraud watch: real-time taint tracking on a payment network.
//
// The paper motivates on-line graph analytics with financial fraud
// detection (§I): payment networks like Visa or Bitcoin are append-only
// graphs (a refund is a new payment, never a deletion) evolving at
// thousands of transactions per second, and the question "has money
// flowing from a flagged account reached account X?" needs an answer in
// real time, not at the next nightly snapshot.
//
// This example streams a synthetic transaction network into the engine
// with two live algorithms attached:
//
//   - Multi S-T connectivity from a set of flagged accounts: every
//     account's state is a bitmap of which flagged sources can reach it
//     through the payment flow. A "When" trigger alerts the moment any
//     monitored account becomes tainted — once, with no false positives.
//   - Degree tracking, alerting when an account's transaction partner
//     count crosses a threshold (a classic structuring/smurfing signal).
//
// Run: go run ./examples/fraud
package main

import (
	"fmt"
	"math/bits"
	"sync/atomic"

	"incregraph"
	"incregraph/internal/gen"
)

const (
	accounts = 5000
	payments = 60000
	stAlgo   = 0 // program indices
	degAlgo  = 1
)

func main() {
	// Accounts flagged by an upstream investigation.
	flagged := []incregraph.VertexID{17, 423, 1999}
	st := incregraph.MultiST(flagged)

	g := incregraph.New(incregraph.Config{Ranks: 8}, st, incregraph.DegreeTracker())

	// Alert once per account that becomes reachable from >= 2 distinct
	// flagged sources (single-source taint is often noise).
	var taintAlerts atomic.Int64
	g.When(stAlgo,
		func(_ incregraph.VertexID, taint uint64) bool { return bits.OnesCount64(taint) >= 2 },
		func(v incregraph.VertexID, taint uint64) {
			if taintAlerts.Add(1) <= 5 {
				fmt.Printf("ALERT taint: account %d reachable from %d flagged sources (mask %b)\n",
					v, bits.OnesCount64(taint), taint)
			}
		})

	// Alert on hyperactive accounts.
	var degreeAlerts atomic.Int64
	g.When(degAlgo,
		func(_ incregraph.VertexID, deg uint64) bool { return deg >= 200 },
		func(v incregraph.VertexID, deg uint64) {
			if degreeAlerts.Add(1) <= 5 {
				fmt.Printf("ALERT volume: account %d has %d distinct counterparties\n", v, deg)
			}
		})

	for _, f := range flagged {
		g.InitVertex(stAlgo, f)
	}

	// The transaction feed: 10% of payments are refunds, modelled as new
	// reverse payments per the paper.
	feed := gen.Transactions(accounts, payments, 0.10, 42)
	live := incregraph.NewLiveStream()
	if err := g.Start(live); err != nil {
		panic(err)
	}
	for _, txn := range feed {
		live.PushEdge(txn)
	}
	live.Close()
	stats := g.Wait()

	fmt.Printf("\nprocessed %d payments at %.0f events/sec (%d taint alerts, %d volume alerts)\n",
		stats.Events.Topo(), stats.EventRate(), taintAlerts.Load(), degreeAlerts.Load())

	// Post-hoc audit: how far did each flagged source's taint spread?
	taint := g.CollectMap(stAlgo)
	perSource := make([]int, len(flagged))
	tainted := 0
	for _, mask := range taint {
		if mask != 0 {
			tainted++
		}
		for i := range flagged {
			if mask&(1<<uint(i)) != 0 {
				perSource[i]++
			}
		}
	}
	fmt.Printf("taint spread: %d/%d accounts reachable from any flagged source\n", tainted, g.Topology().NumVertices())
	for i, f := range flagged {
		fmt.Printf("  source %4d reaches %d accounts\n", f, perSource[i])
	}

	// Cross-check one monitored account against the live state.
	probe := incregraph.VertexID(0) // hub account
	fmt.Printf("account %d taint mask: %b\n", probe, g.Query(stAlgo, probe).Value)
}
