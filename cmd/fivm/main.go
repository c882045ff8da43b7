// Command fivm regenerates the paper's evaluation tables and figures
// (Section 7 and Appendix C) on scaled-down synthetic workloads.
//
// Usage:
//
//	fivm <experiment> [flags]
//
// Experiments: fig6left, fig6right, fig7, fig8, fig11, fig12, fig13,
// triangle-indicator, all.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"fivm/internal/bench"
	"fivm/internal/datasets"
	"fivm/internal/db"
	"fivm/internal/wal"
)

func usage() {
	fmt.Fprintf(os.Stderr, `fivm — F-IVM experiment driver

Usage: fivm <experiment> [flags]

Experiments (paper artifact each regenerates):
  fig6left            matrix chain, one-row updates (Figure 6 left)
  fig6right           matrix chain, rank-r updates (Figure 6 right)
  fig7                cofactor maintenance, throughput + memory (Figure 7)
  fig8                join result representations (Figure 8)
  fig11               SUM-aggregate throughput table (Appendix C)
  fig12               batch size sweep (Figure 12)
  fig13               cofactor over the triangle query (Figure 13)
  triangle-indicator  indicator projections on the triangle (Appendix B)
  ablations           engine design-choice ablations (chain composition,
                      materialization rule, payload encoding)
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
  all                 everything above at default scale

Flags:
`)
	flag.PrintDefaults()
}

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	cmd := os.Args[1]
	fs := flag.NewFlagSet(cmd, flag.ExitOnError)
	dataset := fs.String("dataset", "retailer", "dataset for fig7/fig8: retailer or housing")
	batch := fs.Int("batch", 1000, "update batch size")
	group := fs.Int("group", 1, "stream batches applied per batched ApplyDeltas call")
	workers := fs.Int("workers", 1, "shard/worker count for parallel maintenance (fig7, fig13)")
	timeout := fs.Duration("timeout", 10*time.Second, "per-strategy timeout (the paper's 1h limit, scaled)")
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

	retailer := datasets.DefaultRetailer()
	retailer.Dates *= *scale
	housing := datasets.DefaultHousing()
	housing.Scale *= *scale
	twitter := datasets.DefaultTwitter()
	twitter.Edges *= *scale

	print := func(ts ...*bench.Table) {
		for _, t := range ts {
			fmt.Println(t.Format())
		}
	}

	runFig7 := func(ds string) {
		cfg := bench.DefaultFig7(ds)
		cfg.BatchSize = *batch
		cfg.Timeout = *timeout
		cfg.Group = *group
		cfg.Workers = *workers
		cfg.Retailer = retailer
		cfg.Housing = housing
		cfg.IncludeScalar = !*noScalar
		cfg.AutoOrder = *autoOrder
		print(bench.Fig7(cfg)...)
	}
	runFig8 := func(ds string) {
		cfg := bench.DefaultFig8(ds)
		cfg.BatchSize = *batch
		cfg.Timeout = *timeout
		cfg.Retailer = retailer
		if ds == "housing" {
			print(bench.Fig8Housing(cfg))
		} else {
			print(bench.Fig8Retailer(cfg)...)
		}
	}

	switch cmd {
	case "fig6left":
		cfg := bench.DefaultFig6()
		if *scale > 1 {
			cfg.Ns = append(cfg.Ns, 128**scale, 256**scale)
		}
		print(bench.Fig6Left(cfg))
	case "fig6right":
		cfg := bench.DefaultFig6()
		cfg.N *= *scale
		print(bench.Fig6Right(cfg))
	case "fig7":
		runFig7(*dataset)
	case "fig8":
		runFig8(*dataset)
	case "fig11":
		cfg := bench.DefaultFig11()
		cfg.BatchSize = *batch
		cfg.Timeout = *timeout
		cfg.Retailer = retailer
		cfg.Housing = housing
		print(bench.Fig11(cfg))
	case "fig12":
		cfg := bench.DefaultFig12()
		cfg.Timeout = *timeout
		cfg.Retailer = retailer
		cfg.Housing = housing
		cfg.Twitter = twitter
		print(bench.Fig12(cfg))
	case "fig13":
		cfg := bench.DefaultFig13()
		cfg.BatchSize = *batch
		cfg.Timeout = *timeout
		cfg.Workers = *workers
		cfg.Twitter = twitter
		cfg.AutoOrder = *autoOrder
		cfg.IncludeScalar = !*noScalar
		print(bench.Fig13(cfg)...)
	case "triangle-indicator":
		cfg := bench.DefaultFig13()
		cfg.BatchSize = *batch
		cfg.Timeout = *timeout
		cfg.Twitter = twitter
		print(bench.TriangleIndicator(cfg))
	case "ablations":
		cfg := bench.DefaultAblation()
		cfg.Timeout = *timeout
		cfg.Retailer = retailer
		print(bench.Ablations(cfg))
	case "autoorder":
		cfg := bench.DefaultAutoOrder()
		cfg.BatchSize = *batch
		cfg.Timeout = *timeout
		cfg.Retailer = retailer
		cfg.Housing = housing
		cfg.Twitter = twitter
		print(bench.AutoOrder(cfg)...)
	case "explain":
		ds := pickDataset(*dataset, retailer, housing, twitter)
		fmt.Print(bench.ExplainReport(ds, *autoOrder))
	case "views":
		ds := pickDataset(*dataset, retailer, housing, twitter)
		print(bench.ViewTreeReport(ds, nil))
		print(bench.ViewTreeReport(ds, []string{ds.Largest}))
	case "repl":
		ds := pickDataset(*dataset, retailer, housing, twitter)
		if err := repl(ds, os.Stdin, os.Stdout, *batch, *workers, durability); err != nil {
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
			fmt.Fprintln(os.Stderr, `usage: fivm sql [-dataset retailer|housing] "SELECT ..."`)
			os.Exit(2)
		}
		ds := pickDataset(*dataset, retailer, housing, twitter)
		if err := runSQL(ds, fs.Arg(0), *batch, *group); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	case "all":
		print(bench.Fig6Left(bench.DefaultFig6()))
		print(bench.Fig6Right(bench.DefaultFig6()))
		runFig7("retailer")
		runFig7("housing")
		runFig8("retailer")
		runFig8("housing")
		cfg11 := bench.DefaultFig11()
		cfg11.Timeout = *timeout
		print(bench.Fig11(cfg11))
		cfg12 := bench.DefaultFig12()
		cfg12.Timeout = *timeout
		print(bench.Fig12(cfg12))
		cfg13 := bench.DefaultFig13()
		cfg13.Timeout = *timeout
		print(bench.Fig13(cfg13)...)
		print(bench.TriangleIndicator(bench.DefaultFig13()))
	case "-h", "--help", "help":
		usage()
	default:
		fmt.Fprintf(os.Stderr, "unknown experiment %q\n\n", cmd)
		usage()
		os.Exit(2)
	}
}
