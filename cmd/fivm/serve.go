package main

import (
	"context"
	"fmt"
	"net"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"fivm/internal/data"
	"fivm/internal/db"
	"fivm/internal/netserve"
	"fivm/internal/replica"
)

// parseCatalog reads a "R(A,B);S(A,C)" base-relation specification.
func parseCatalog(spec string) (db.Catalog, error) {
	cat := db.Catalog{}
	for _, part := range strings.Split(spec, ";") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		open, close := strings.Index(part, "("), strings.LastIndex(part, ")")
		if open <= 0 || close != len(part)-1 {
			return nil, fmt.Errorf("bad catalog entry %q (want Name(Col,...))", part)
		}
		name := strings.TrimSpace(part[:open])
		var cols []string
		for _, c := range strings.Split(part[open+1:close], ",") {
			c = strings.TrimSpace(c)
			if c == "" {
				return nil, fmt.Errorf("bad catalog entry %q: empty column", part)
			}
			cols = append(cols, c)
		}
		cat[name] = data.NewSchema(cols...)
	}
	if len(cat) == 0 {
		return nil, fmt.Errorf("empty catalog %q", spec)
	}
	return cat, nil
}

// serveCmd runs `fivm serve`: an HTTP read/write server over a DB, and —
// with -replication-listen — a WAL-shipping replication primary. SIGINT and
// SIGTERM drain in-flight requests, flush and fsync the WAL, and close the
// DB before exiting.
func serveCmd(listen, replListen string, cat db.Catalog, dur *db.DurabilityOptions, queueDepth int) error {
	d, err := db.Open(cat, db.Options{Durability: dur})
	if err != nil {
		return err
	}
	if ri := d.Recovery(); ri != nil {
		fmt.Printf("recovered %d applied batches", d.Applied())
		if len(ri.Views) > 0 {
			fmt.Printf("; views: %s", strings.Join(ri.Views, ", "))
		}
		fmt.Println()
	}
	q := db.NewApplyQueue(d, queueDepth)
	srv, err := netserve.New(netserve.Config{DB: func() *db.DB { return d }, Queue: q})
	if err != nil {
		d.Close()
		return err
	}
	l, err := net.Listen("tcp", listen)
	if err != nil {
		d.Close()
		return err
	}

	var prim *replica.Primary
	if replListen != "" {
		if dur == nil {
			l.Close()
			d.Close()
			return fmt.Errorf("serve: -replication-listen requires -wal-dir (the WAL is the replication stream)")
		}
		rl, err := net.Listen("tcp", replListen)
		if err != nil {
			l.Close()
			d.Close()
			return err
		}
		if prim, err = replica.NewPrimary(d, rl); err != nil {
			rl.Close()
			l.Close()
			d.Close()
			return err
		}
		go prim.Serve()
		fmt.Printf("replication primary on %s\n", prim.Addr())
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(l) }()
	fmt.Printf("serving HTTP on %s (catalog: %d relations)\n", l.Addr(), len(cat))

	select {
	case err := <-serveErr:
		d.Close()
		return err
	case <-ctx.Done():
	}
	fmt.Println("\nshutting down: draining requests, syncing WAL")
	sctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(sctx); err != nil {
		fmt.Fprintln(os.Stderr, "drain:", err)
	}
	if prim != nil {
		prim.Close()
	}
	q.Close()
	if err := d.Sync(); err != nil {
		fmt.Fprintln(os.Stderr, "sync:", err)
	}
	return d.Close()
}

// followCmd runs `fivm follow`: a read replica streaming from a primary's
// replication listener and serving read-only HTTP. With -wal-dir the
// follower is durable and resumes from its local WAL after restarts.
func followCmd(primary, listen string, cat db.Catalog, dur *db.DurabilityOptions) error {
	f, err := replica.NewFollower(replica.FollowerConfig{
		Primary:    primary,
		Catalog:    cat,
		Durability: dur,
	})
	if err != nil {
		return err
	}
	srv, err := netserve.New(netserve.Config{DB: f.DB}) // no queue: read-only
	if err != nil {
		f.Close()
		return err
	}
	l, err := net.Listen("tcp", listen)
	if err != nil {
		f.Close()
		return err
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(l) }()
	runDone := make(chan struct{})
	go func() { defer close(runDone); f.Run(ctx) }()
	fmt.Printf("following %s; serving read-only HTTP on %s\n", primary, l.Addr())

	select {
	case err := <-serveErr:
		f.Close()
		return err
	case <-ctx.Done():
	}
	fmt.Println("\nshutting down: draining requests, syncing WAL")
	sctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(sctx); err != nil {
		fmt.Fprintln(os.Stderr, "drain:", err)
	}
	<-runDone
	return f.Close() // final WAL sync happens in the DB close
}
