// Command paperbench regenerates the paper's evaluation artifacts — the
// Table I inventory and Figures 3 through 7 — over laptop-scale synthetic
// stand-ins (see DESIGN.md for the substitution table and EXPERIMENTS.md
// for recorded results).
//
// Usage:
//
//	paperbench all
//	paperbench fig5 -scale 15 -ranks 1,2,4,8
//	paperbench fig7 -quick
//
// Absolute rates will not match the authors' 3,072-core Catalyst cluster;
// the reproduction target is the shape of each comparison, which every
// table's footnote restates. Performance measurement — saturation rates and
// open-loop latency with oracle-checked runs — lives in bench/ (make bench).
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"incregraph/internal/harness"
)

var experiments = map[string]func(harness.Config) *harness.Table{
	"table1":    harness.Table1,
	"fig3":      harness.Fig3,
	"fig4":      harness.Fig4,
	"fig5":      harness.Fig5,
	"fig6":      harness.Fig6,
	"fig7":      harness.Fig7,
	"ablations": harness.Ablations,
	"batching":  harness.Batching,
	"latency":   harness.Latency,
	"counters":  harness.Counters,
	// Not in `all`: the PR 8 storage scaling study runs at scale 20 and
	// takes minutes. Invoke explicitly: paperbench scaling [-quick].
	"scaling": harness.Scaling,
}

var order = []string{"table1", "fig3", "fig4", "fig5", "fig6", "fig7", "ablations", "batching", "latency", "counters"}

func main() {
	fs := flag.NewFlagSet("paperbench", flag.ExitOnError)
	scale := fs.Int("scale", 0, "dataset scale (2^scale vertices; 0 = default 16)")
	ef := fs.Int("ef", 0, "edge factor (0 = default 16)")
	ranksFlag := fs.String("ranks", "", "comma-separated rank sweep (default 1,2,4,...,NumCPU)")
	quickFlag := fs.Bool("quick", false, "tiny sizes (smoke test)")
	fs.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: paperbench {all|scaling|%s} [flags]\n", strings.Join(order, "|"))
		fs.PrintDefaults()
	}
	if len(os.Args) < 2 {
		fs.Usage()
		os.Exit(2)
	}
	which := os.Args[1]
	if err := fs.Parse(os.Args[2:]); err != nil {
		os.Exit(2)
	}

	cfg := harness.Config{Scale: *scale, EdgeFactor: *ef, Quick: *quickFlag}
	if *ranksFlag != "" {
		for _, part := range strings.Split(*ranksFlag, ",") {
			r, err := strconv.Atoi(strings.TrimSpace(part))
			if err != nil || r < 1 {
				fmt.Fprintf(os.Stderr, "paperbench: bad rank count %q\n", part)
				os.Exit(2)
			}
			cfg.Ranks = append(cfg.Ranks, r)
		}
	}

	run := func(name string) {
		fn, ok := experiments[name]
		if !ok {
			fmt.Fprintf(os.Stderr, "paperbench: unknown experiment %q\n", name)
			os.Exit(2)
		}
		fn(cfg).Fprint(os.Stdout)
	}
	if which == "all" {
		for _, name := range order {
			run(name)
		}
		return
	}
	run(which)
}
