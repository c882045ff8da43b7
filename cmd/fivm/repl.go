package main

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"sync/atomic"
	"syscall"
	"time"

	"fivm/internal/data"
	"fivm/internal/datasets"
	"fivm/internal/db"
	"fivm/internal/sqlparse"
)

// repl is the serve-style interactive mode: a db.DB over a dataset's
// catalog, view DDL (CREATE VIEW / DROP VIEW / one-shot SELECT) driving the
// maintenance machinery, and dot-commands to play the dataset's update
// stream and inspect views between batches.
func repl(ds *datasets.Dataset, in io.Reader, out io.Writer, batchSize int, dur *db.DurabilityOptions) error {
	cat := db.Catalog{}
	for _, rd := range ds.Query.Rels {
		cat[rd.Name] = rd.Schema
	}
	d, err := db.Open(cat, db.Options{Durability: dur})
	if err != nil {
		return err
	}
	defer d.Close()

	// Ctrl-C (or SIGTERM) must not lose the WAL tail buffered under
	// fsync=never: the session always exits through d.Close (final
	// sync included). The busy/stopped pair decides who closes: a signal at
	// the idle prompt lets the handler close directly; mid-operation it only
	// requests a stop, and the loop exits through the deferred Close once
	// the operation finishes. Every return path holds `busy`, so the two
	// sides can never close concurrently.
	var busy, stopped atomic.Bool
	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	defer func() { signal.Stop(sigc); close(sigc) }()
	go func() {
		if _, ok := <-sigc; !ok {
			return
		}
		stopped.Store(true)
		if busy.CompareAndSwap(false, true) {
			fmt.Fprintln(out, "\ninterrupt: syncing WAL and closing")
			d.Close()
			os.Exit(130)
		}
	}()
	// acquire claims the DB for one operation; if the signal handler won the
	// race it is already closing and exiting, so just wait for the exit.
	acquire := func() {
		if !busy.CompareAndSwap(false, true) {
			select {}
		}
	}

	stream := datasets.RoundRobinStream(ds, ds.Query.RelNames(), batchSize)
	// A recovered session resumes the deterministic stream where the logged
	// batches left off, so .play continues rather than re-applies.
	at := min(int(d.Applied()), len(stream))
	tempViews := 0

	if ri := d.Recovery(); ri != nil {
		fmt.Fprintf(out, "recovered %d applied batches from %s", d.Applied(), dur.Dir)
		if ri.FromCheckpoint {
			fmt.Fprintf(out, " (checkpoint at batch %d, %d replayed)", ri.CheckpointApplied, ri.ReplayedBatches)
		}
		if len(ri.Views) > 0 {
			fmt.Fprintf(out, "; views: %s", strings.Join(ri.Views, ", "))
		}
		if ri.TornBytes > 0 {
			fmt.Fprintf(out, "; discarded %dB torn tail", ri.TornBytes)
		}
		fmt.Fprintln(out)
	}
	fmt.Fprintf(out, "fivm repl — dataset %s (%d stream batches of ~%d tuples; %d applied)\n",
		ds.Name, len(stream), batchSize, at)
	fmt.Fprintf(out, "SQL: CREATE VIEW v AS SELECT ...; DROP VIEW v; SELECT ... (one-shot)\n")
	fmt.Fprintf(out, "commands: .play [n] .views .show v [limit] .stats .checkpoint .help .quit\n")

	sc := bufio.NewScanner(in)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	var pending strings.Builder
	prompt := func() { fmt.Fprint(out, "fivm> ") }
	prompt()
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		switch {
		case line == "" && pending.Len() == 0:
			prompt()
			continue
		case strings.HasPrefix(line, ".") && pending.Len() == 0:
			acquire()
			quit := replCommand(d, out, line, stream, &at, &stopped)
			if quit || stopped.Load() {
				return nil // busy stays held: the deferred Close owns the DB
			}
			busy.Store(false)
			prompt()
			continue
		}
		// SQL accumulates until a terminating semicolon (or a blank line).
		pending.WriteString(line)
		pending.WriteString(" ")
		if !strings.HasSuffix(line, ";") && line != "" {
			continue
		}
		sql := strings.TrimSpace(pending.String())
		pending.Reset()
		if sql != "" {
			acquire()
			replSQL(d, out, sql, &tempViews)
			if stopped.Load() {
				return nil
			}
			busy.Store(false)
		}
		prompt()
	}
	acquire() // hold the DB so the deferred Close cannot race the handler
	return sc.Err()
}

// replSQL executes one SQL statement against the DB.
func replSQL(d *db.DB, out io.Writer, sql string, tempViews *int) {
	st, err := sqlparse.ParseStatement(sql, replCatalog(d))
	if err != nil {
		fmt.Fprintln(out, err)
		return
	}
	switch st.Kind {
	case sqlparse.StmtCreateView:
		start := time.Now()
		if _, err := db.CreateViewSQL(d, "", sql, db.ViewOptions{}); err != nil {
			fmt.Fprintln(out, err)
			return
		}
		fmt.Fprintf(out, "created view %s (backfilled in %v)\n", st.ViewName, time.Since(start).Round(time.Microsecond))
	case sqlparse.StmtDropView:
		if err := d.DropView(st.ViewName); err != nil {
			fmt.Fprintln(out, err)
			return
		}
		fmt.Fprintf(out, "dropped view %s\n", st.ViewName)
	case sqlparse.StmtSelect:
		// One-shot query: a temporary view backfilled from the current
		// bases answers it, then retires.
		*tempViews++
		name := fmt.Sprintf("q#%d", *tempViews)
		v, err := db.CreateViewSQL(d, name, sql, db.ViewOptions{})
		if err != nil {
			fmt.Fprintln(out, err)
			return
		}
		snap := v.Snapshot()
		showSnapshot(out, snap.Result(), 20)
		snap.Release()
		if err := d.DropView(name); err != nil {
			fmt.Fprintln(out, err)
		}
	}
}

// replCommand handles one dot-command; it reports whether to quit. stop is
// polled between .play batches so an interrupt lands between whole batches.
func replCommand(d *db.DB, out io.Writer, line string, stream []datasets.Batch, at *int, stop *atomic.Bool) bool {
	fields := strings.Fields(line)
	switch fields[0] {
	case ".quit", ".exit":
		return true
	case ".help":
		fmt.Fprintln(out, "SQL: CREATE VIEW v AS SELECT ...; DROP VIEW v; SELECT ... (one-shot)")
		fmt.Fprintln(out, ".play [n]      apply the next n stream batches (default 10)")
		fmt.Fprintln(out, ".views         list registered views")
		fmt.Fprintln(out, ".show v [k]    print up to k groups of view v (default 20)")
		fmt.Fprintln(out, ".stats         ingest and per-view maintenance statistics")
		fmt.Fprintln(out, ".checkpoint    write a durability checkpoint and prune the WAL (-wal-dir)")
		fmt.Fprintln(out, ".quit          leave")
	case ".play":
		n := 10
		if len(fields) > 1 {
			if k, err := strconv.Atoi(fields[1]); err == nil && k > 0 {
				n = k
			}
		}
		tuples := 0
		start := time.Now()
		for i := 0; i < n && *at < len(stream); i++ {
			if stop.Load() {
				fmt.Fprintln(out, "interrupted")
				break
			}
			b := stream[*at]
			*at++
			tuples += len(b.Tuples)
			if err := d.Apply([]db.Update{{Rel: b.Rel, Tuples: b.Tuples, Mult: 1}}); err != nil {
				fmt.Fprintln(out, err)
				return false
			}
		}
		el := time.Since(start)
		fmt.Fprintf(out, "applied %d tuples in %v (%.0f tuples/s); %d/%d batches done, epoch %d\n",
			tuples, el.Round(time.Microsecond), float64(tuples)/el.Seconds(), *at, len(stream), epochSeq(d))
	case ".views":
		names := d.Views()
		if len(names) == 0 {
			fmt.Fprintln(out, "no views; CREATE VIEW v AS SELECT ...")
		}
		for _, name := range names {
			st := d.ViewStatsOf(name)
			fmt.Fprintf(out, "  %-16s %d inner views, %s, %d batches, %d keys published, maintain %v; pool %d free, %d reclaimed, scratch keys %s, tuples %s; arena %d chunk arrays, %d free, %d generations open, %d forgotten leases\n",
				name, st.ViewCount, fmtBytes(st.MemoryBytes), st.Batches, st.PublishedKeys, st.Maintain.Round(time.Microsecond),
				st.PoolFree, st.Reclaimed, fmtBytes(st.ScratchKeyBytes), fmtBytes(st.ScratchTupleBytes),
				st.Arena.ChunksLive, st.Arena.ChunksFree, st.Arena.GenerationsOpen, st.Arena.BackstopReclaims)
		}
		showStorage(d, out)
	case ".show":
		if len(fields) < 2 {
			fmt.Fprintln(out, "usage: .show <view> [limit]")
			return false
		}
		limit := 20
		if len(fields) > 2 {
			if k, err := strconv.Atoi(fields[2]); err == nil && k > 0 {
				limit = k
			}
		}
		e := d.Epoch()
		defer e.Release()
		s := db.SnapshotOf[float64](e, fields[1])
		if s == nil {
			fmt.Fprintf(out, "unknown view %q (SQL-created views only)\n", fields[1])
			return false
		}
		showSnapshot(out, s.Result(), limit)
	case ".stats":
		fmt.Fprintf(out, "applied batches: %d, epoch %d, base tuples: %d, memory %s\n",
			d.Applied(), epochSeq(d), baseTuples(d), fmtBytes(d.MemoryBytes()))
		if lsn, ok := d.WALStats(); ok {
			fmt.Fprintf(out, "wal: lsn %d\n", lsn)
		}
		showStorage(d, out)
	case ".checkpoint":
		start := time.Now()
		if err := d.Checkpoint(); err != nil {
			fmt.Fprintln(out, err)
			return false
		}
		lsn, _ := d.WALStats()
		fmt.Fprintf(out, "checkpoint written at lsn %d in %v (older WAL pruned)\n",
			lsn, time.Since(start).Round(time.Microsecond))
	default:
		fmt.Fprintf(out, "unknown command %s (.help)\n", fields[0])
	}
	return false
}

func replCatalog(d *db.DB) sqlparse.Catalog {
	cat := sqlparse.Catalog{}
	for _, rel := range d.Relations() {
		sch, _ := d.Schema(rel)
		cat[rel] = sch
	}
	return cat
}

// showStorage prints the base store, the views' rows, the batch intake and the
// last checkpoint as the current epoch carries them (what GET /stats reports
// as base_store, view_stats.*.tuples_copied/rows_reused/rows_retired/
// arena_retired, ingest and checkpoint).
func showStorage(d *db.DB, out io.Writer) {
	e := d.Epoch()
	defer e.Release()
	rels, bases := e.BaseStats()
	for i, rel := range rels {
		b := bases[i]
		sch, _ := d.Schema(rel)
		fmt.Fprintf(out, "  base %-12s %d tuples, %s; pool %d free, %d reclaimed, recycled keys %s, tuples %s\n",
			rel, b.Tuples, fmtBytes(b.MemoryBytes), b.PoolFree, b.Reclaimed, fmtBytes(b.FreeKeyBytes),
			fmtBytes(b.FreeTupleBytes(len(sch))))
	}
	for _, name := range e.Views() {
		st, _ := e.Stats(name)
		fmt.Fprintf(out, "  view %-12s rows %d bought, %d reused, %d retired, arena chunk arrays %d retired (climbing: a reader pins epochs); index tables %s, %d slab chunks (both constant after a workload's first cycle)\n",
			name, st.TuplesCopied, st.RowsReused, st.RowsRetired, st.Arena.ChunksRetired, fmtBytes(st.IndexTableBytes), st.SlabChunks)
	}
	fmt.Fprintf(out, "  ingest: last batch arena %s; frames leased %d, allocated %d\n",
		fmtBytes(e.Ingest.ArenaBytes), e.Ingest.FramesLeased, e.Ingest.FramesAllocated)
	fmt.Fprintf(out, "  epoch headers: %d reused, %d allocated (allocated climbing: a reader pins or forgets leases)\n",
		e.Recycled.Reused, e.Recycled.Allocated)
	if ck := e.Checkpoint; ck.Writes > 0 {
		fmt.Fprintf(out, "  checkpoint at lsn %d: %d rows, %s in %d writes, %v\n",
			ck.LSN, ck.Rows, fmtBytes(int(ck.Bytes)), ck.Writes, ck.Duration.Round(time.Microsecond))
	}
}

// epochSeq reads the current epoch's sequence number.
func epochSeq(d *db.DB) uint64 {
	e := d.Epoch()
	defer e.Release()
	return e.Seq
}

func baseTuples(d *db.DB) int {
	n := 0
	for _, rel := range d.Relations() {
		n += d.Base(rel).Len()
	}
	return n
}

func fmtBytes(b int) string {
	switch {
	case b >= 1<<20:
		return fmt.Sprintf("%.2fMiB", float64(b)/(1<<20))
	case b >= 1<<10:
		return fmt.Sprintf("%.1fKiB", float64(b)/(1<<10))
	default:
		return fmt.Sprintf("%dB", b)
	}
}

func showSnapshot(out io.Writer, s *data.RelationSnapshot[float64], limit int) {
	fmt.Fprintf(out, "(%d groups)\n", s.Len())
	es := s.SortedEntries() // already in encoded-key order
	for i, e := range es {
		if i >= limit {
			fmt.Fprintf(out, "  ... (%d more)\n", len(es)-limit)
			return
		}
		fmt.Fprintf(out, "  %v -> %g\n", e.Tuple, e.Payload)
	}
}
