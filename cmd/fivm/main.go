// Command fivm regenerates the paper's evaluation tables and figures
// (Section 7 and Appendix C) on scaled-down synthetic workloads, as counted
// work: views, ring multiplications and floats per tuple, and state.
//
// Usage:
//
//	fivm <experiment> [flags]
//
// Experiments: fig6left, fig6right, fig7, fig8, fig11, fig12, fig13,
// triangle-indicator, autoorder, all.
package main

import (
	"flag"
	"fmt"
	"os"
	"slices"
	"strings"

	"fivm/internal/bench"
	"fivm/internal/db"
	"fivm/internal/wal"
)

func usage() {
	fmt.Fprintf(os.Stderr, `fivm — F-IVM experiment driver

Usage: fivm <experiment> [flags]

Experiments (paper artifact each regenerates). Each prints counted work,
which reads the same on every machine: views, ring multiplications (Mul) and
floats touched per tuple, and state, plus one wall-clock column, "elapsed
(not bounded)". There is no timeout: the scalar DBT and 1-IVM and the
re-evaluations run the first 6 round-robin batches of 50 tuples.
  fig6left            matrix chain, dense rank-1 updates, factored vs
                      listed (Figure 6 left)
  fig6right           matrix chain, rank-r updates (Figure 6 right)
  fig7                cofactor maintenance (Figure 7)
  fig8                join result representations, result size (Figure 8)
  fig11               SUM-aggregate maintenance (Appendix C)
  fig12               batch size sweep, Mul per tuple (Figure 12)
  fig13               cofactor over the triangle query (Figure 13)
  triangle-indicator  indicator projections on the triangle (Appendix B)
  autoorder           optimizer ablation: handpicked vs cost-chosen orders
                      (and cost-based materialization) on fig7/fig13 queries
  explain             print the optimizer's plan for a dataset: chosen
                      order, width, estimated vs actual view sizes, and
                      materialization decisions
  views               print a dataset's view tree and materialization
  sql "SELECT ..."    maintain an ad-hoc query over a dataset's stream
  repl                interactive DB session over a dataset: CREATE VIEW /
                      DROP VIEW / one-shot SELECT, with .play to stream
                      update batches into every registered view at once;
                      -wal-dir makes the session durable (segmented WAL +
                      .checkpoint, recovered on restart)
  serve               HTTP server over a DB: lookups, scans, one-shot
                      SELECT, DDL, backpressured writes (-listen); with
                      -wal-dir + -replication-listen it is a replication
                      primary shipping WAL records to followers
  follow              read replica: streams a primary's WAL
                      (-primary host:port), serves read-only HTTP
                      (-listen); -wal-dir makes it durable across restarts
  all                 every figure above at default scale

Flags:
`)
	flag.PrintDefaults()
}

var (
	figDatasets = []string{"retailer", "housing"}
	allDatasets = []string{"retailer", "housing", "twitter"}
	// datasetsOf lists the -dataset names each command takes; a command not
	// listed ignores the flag.
	datasetsOf = map[string][]string{
		"fig7": figDatasets, "fig8": figDatasets,
		"explain": allDatasets, "views": allDatasets, "repl": allDatasets,
		"serve": allDatasets, "follow": allDatasets, "sql": allDatasets,
	}
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	cmd := os.Args[1]
	fs := flag.NewFlagSet(cmd, flag.ExitOnError)
	dataset := fs.String("dataset", "retailer", "dataset: retailer, housing or twitter (fig7 and fig8: retailer or housing)")
	batch := fs.Int("batch", 1000, "update batch size")
	group := fs.Int("group", 1, "stream batches applied per batched ApplyDeltas call")
	scale := fs.Int("scale", 1, "dataset scale multiplier")
	noScalar := fs.Bool("no-scalar", false, "skip the per-aggregate scalar competitors (DBT, 1-IVM)")
	autoOrder := fs.Bool("auto-order", false, "let the cost-based optimizer choose variable orders (fig7, fig13, explain) instead of the handpicked ones")
	walDir := fs.String("wal-dir", "", "enable durability: segmented WAL and checkpoints in this directory, recovered on start (repl)")
	fsyncName := fs.String("fsync", "never", "WAL fsync policy: always, interval, or never")
	ckptEvery := fs.Uint64("checkpoint-every", 0, "write an automatic checkpoint every N applied batches (repl; 0 = manual .checkpoint only)")
	listen := fs.String("listen", "127.0.0.1:8080", "HTTP listen address (serve, follow)")
	replListen := fs.String("replication-listen", "", "replication listener address for followers (serve; requires -wal-dir)")
	primaryAddr := fs.String("primary", "", "primary's replication address to stream from (follow)")
	catalogSpec := fs.String("catalog", "", `base relations as "R(A,B);S(A,C)" (serve, follow); default: the -dataset's catalog`)
	queueDepth := fs.Int("queue-depth", 256, "bounded ingest queue depth; a full queue returns 429 (serve)")
	fs.Parse(os.Args[2:])

	if names, takes := datasetsOf[cmd]; takes && !slices.Contains(names, *dataset) {
		fmt.Fprintf(os.Stderr, "%s: -dataset %q is not one of %s\n", cmd, *dataset, strings.Join(names, ", "))
		os.Exit(2)
	}

	fsync, err := wal.ParseFsync(*fsyncName)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	// durability is nil — a purely in-memory DB — unless -wal-dir is given.
	var durability *db.DurabilityOptions
	if *walDir != "" {
		durability = &db.DurabilityOptions{Dir: *walDir, Fsync: fsync, CheckpointEvery: *ckptEvery}
	}

	cfg := bench.DefaultConfig()
	cfg.Retailer.Dates *= *scale
	cfg.Housing.Scale *= *scale
	cfg.Twitter.Edges *= *scale
	cfg.BatchSize, cfg.Group = *batch, *group
	cfg.Scalar, cfg.AutoOrder = !*noScalar, *autoOrder
	for i := range cfg.Ns {
		cfg.Ns[i] *= *scale
	}
	cfg.N *= *scale
	retailer, housing, twitter := cfg.Retailer, cfg.Housing, cfg.Twitter

	print := func(ts ...*bench.Table) {
		for _, t := range ts {
			fmt.Println(t.Format())
		}
	}
	fig8 := func(ds string) {
		if ds == "housing" {
			print(bench.Fig8Housing(cfg))
		} else {
			print(bench.Fig8Retailer(cfg))
		}
	}

	switch cmd {
	case "fig6left":
		print(bench.Fig6Left(cfg))
	case "fig6right":
		print(bench.Fig6Right(cfg))
	case "fig7":
		print(bench.Fig7(cfg, *dataset))
	case "fig8":
		fig8(*dataset)
	case "fig11":
		print(bench.Fig11(cfg)...)
	case "fig12":
		print(bench.Fig12(cfg))
	case "fig13":
		print(bench.Fig13(cfg))
	case "triangle-indicator":
		print(bench.TriangleIndicator(cfg))
	case "autoorder":
		print(bench.AutoOrder(cfg)...)
	case "explain":
		ds := pickDataset(*dataset, retailer, housing, twitter)
		fmt.Print(bench.ExplainReport(ds, *autoOrder))
	case "views":
		ds := pickDataset(*dataset, retailer, housing, twitter)
		for _, upd := range [][]string{nil, {ds.Largest}} {
			t, err := viewTreeReport(ds, upd)
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
			print(t)
		}
	case "repl":
		ds := pickDataset(*dataset, retailer, housing, twitter)
		if err := repl(ds, os.Stdin, os.Stdout, *batch, durability); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	case "serve", "follow":
		cat := db.Catalog{}
		if *catalogSpec != "" {
			if cat, err = parseCatalog(*catalogSpec); err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(2)
			}
		} else {
			ds := pickDataset(*dataset, retailer, housing, twitter)
			for _, rd := range ds.Query.Rels {
				cat[rd.Name] = rd.Schema
			}
		}
		var err error
		if cmd == "serve" {
			err = serveCmd(*listen, *replListen, cat, durability, *queueDepth)
		} else {
			if *primaryAddr == "" {
				fmt.Fprintln(os.Stderr, "follow: -primary host:port is required")
				os.Exit(2)
			}
			err = followCmd(*primaryAddr, *listen, cat, durability)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	case "sql":
		if fs.NArg() < 1 {
			fmt.Fprintln(os.Stderr, `usage: fivm sql [-dataset retailer|housing|twitter] "SELECT ..."`)
			os.Exit(2)
		}
		ds := pickDataset(*dataset, retailer, housing, twitter)
		if err := runSQL(ds, fs.Arg(0), *batch, *group); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	case "all":
		print(bench.Fig6Left(cfg), bench.Fig6Right(cfg), bench.Fig7(cfg, "retailer"), bench.Fig7(cfg, "housing"))
		fig8("retailer")
		fig8("housing")
		print(bench.Fig11(cfg)...)
		print(bench.Fig12(cfg), bench.Fig13(cfg), bench.TriangleIndicator(cfg))
	case "-h", "--help", "help":
		usage()
	default:
		fmt.Fprintf(os.Stderr, "unknown experiment %q\n\n", cmd)
		usage()
		os.Exit(2)
	}
}
