// Command trac-server serves a TRAC database over the length-prefixed
// binary wire protocol in internal/server. Each client connection is one
// session (temp tables + prepared statements) served by one goroutine, which
// takes one of a bounded number of execution slots for each request and
// waits a bounded time for it, so overload degrades to fast "busy" responses
// with bounded p99 rather than collapse.
//
//	trac-server -demo                       # serve the paper's §5.1 fixture
//	trac-server -f init.sql -addr :7483     # run DDL/DML script, then serve
//	trac-server -demo -shards 4             # sharded scatter-gather serving
//	trac-server -dir ./db                   # serve a durable directory
//
// Flags tune the admission layer: -workers (execution slots, default
// GOMAXPROCS), -queue (requests that may wait for a slot, default
// 8×workers), -admit-timeout (queueing deadline before a request is shed).
// -token enables shared-secret auth. SIGINT/SIGTERM drain in-flight sessions,
// then checkpoint (with -dir) and close the database before exit.
//
// With -dir the database is recovered from the directory (trac.OpenDir) and
// every committed statement is logged there. -demo and -f initialize an
// empty directory only, and what they set up — including the source-column
// and domain declarations SQL cannot express — is checkpointed before the
// first connection is accepted.
package main

import (
	"bufio"
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"trac"
	"trac/internal/demo"
	"trac/internal/server"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:7483", "listen address")
	withDemo := flag.Bool("demo", false, "preload the paper's example schema and data")
	script := flag.String("f", "", "execute SQL statements from this file before serving")
	shards := flag.Int("shards", 1, "open the database as N hash-partitioned engine shards")
	dir := flag.String("dir", "", "serve the durable database directory at this path (not with -shards > 1)")
	token := flag.String("token", "", "shared-secret auth token (empty disables auth)")
	workers := flag.Int("workers", 0, "execution slots (0 = GOMAXPROCS)")
	queue := flag.Int("queue", 0, "admission queue depth (0 = 8×workers)")
	admitTimeout := flag.Duration("admit-timeout", 0, "admission queueing deadline (0 = default 100ms)")
	drainTimeout := flag.Duration("drain-timeout", 10*time.Second, "graceful shutdown bound")
	flag.Parse()

	db, err := demo.Open(*dir, *shards)
	if err != nil {
		log.Fatalf("trac-server: %v", err)
	}
	if *dir != "" && len(db.Catalog()) > 0 {
		log.Printf("trac-server: %s already holds %d tables; -demo and -f skipped", *dir, len(db.Catalog()))
	} else {
		if *withDemo {
			demo.Load(db)
		}
		if *script != "" {
			if err := runScript(db, *script); err != nil {
				log.Fatalf("trac-server: %v", err)
			}
		}
		if *dir != "" {
			if err := db.CheckpointDir(); err != nil {
				log.Fatalf("trac-server: %v", err)
			}
		}
	}

	srv, err := server.New(server.Config{
		DB:    db,
		Token: *token,
		Name:  "trac-server",
		Sched: server.SchedConfig{
			Workers:          *workers,
			QueueDepth:       *queue,
			AdmissionTimeout: *admitTimeout,
		},
		Logf: log.Printf,
	})
	if err != nil {
		log.Fatalf("trac-server: %v", err)
	}

	// Serve in the main goroutine; the signal handler goroutine owns
	// shutdown. Serve returns nil once Shutdown closes the listener.
	sigC := make(chan os.Signal, 1)
	signal.Notify(sigC, syscall.SIGINT, syscall.SIGTERM)
	done := make(chan struct{})
	go func() {
		defer close(done)
		sig := <-sigC
		log.Printf("trac-server: %s: draining (bound %s)", sig, *drainTimeout)
		ctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			log.Printf("trac-server: drain: %v", err)
		}
	}()

	log.Printf("trac-server: serving %d shard(s) on %s (workers=%d queue=%d)",
		db.Shards(), *addr, srv.Scheduler().Workers(), srv.Scheduler().QueueDepth())
	if err := srv.ListenAndServe(*addr); err != nil {
		log.Fatalf("trac-server: %v", err)
	}
	<-done
	st := srv.Stats()
	log.Printf("trac-server: drained: %d accepted, %d executed, %d shed",
		st.Accepted, st.Sched.Executed, st.Sched.Shed())
	if err := closeDB(db, *dir != ""); err != nil {
		log.Printf("trac-server: close: %v", err)
	}
}

// closeDB runs after the drain: nothing is in flight, so a durable database
// is checkpointed (the next start loads a dump instead of replaying this
// run's log) and then closed either way.
func closeDB(db *trac.DB, durable bool) error {
	var ckptErr error
	if durable {
		ckptErr = db.CheckpointDir()
	}
	return errors.Join(ckptErr, db.Close())
}

// runScript executes the statements in path ("--" lines are comments),
// matching trac-shell's -f semantics for DDL/DML only.
func runScript(db *trac.DB, path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 64*1024), 1024*1024)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "--") {
			continue
		}
		if _, err := db.Exec(line); err != nil {
			return fmt.Errorf("%s: %w", line, err)
		}
	}
	return sc.Err()
}
