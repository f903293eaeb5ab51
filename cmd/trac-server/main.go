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
	"trac/internal/server"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:7483", "listen address")
	demo := flag.Bool("demo", false, "preload the paper's example schema and data")
	script := flag.String("f", "", "execute SQL statements from this file before serving")
	shards := flag.Int("shards", 1, "open the database as N hash-partitioned engine shards")
	dir := flag.String("dir", "", "serve the durable database directory at this path (not with -shards > 1)")
	token := flag.String("token", "", "shared-secret auth token (empty disables auth)")
	workers := flag.Int("workers", 0, "execution slots (0 = GOMAXPROCS)")
	queue := flag.Int("queue", 0, "admission queue depth (0 = 8×workers)")
	admitTimeout := flag.Duration("admit-timeout", 0, "admission queueing deadline (0 = default 100ms)")
	drainTimeout := flag.Duration("drain-timeout", 10*time.Second, "graceful shutdown bound")
	flag.Parse()

	db, err := open(*dir, *shards)
	if err != nil {
		log.Fatalf("trac-server: %v", err)
	}
	if *dir != "" && len(db.Catalog()) > 0 {
		log.Printf("trac-server: %s already holds %d tables; -demo and -f skipped", *dir, len(db.Catalog()))
	} else {
		if *demo {
			loadDemo(db)
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

// open opens the in-memory database, or recovers the durable directory.
func open(dir string, shards int) (*trac.DB, error) {
	switch {
	case dir == "":
		return trac.Open(trac.WithShards(shards)), nil
	case shards > 1:
		return nil, fmt.Errorf("-dir with -shards %d: %w", shards, trac.ErrShardedDir)
	}
	return trac.OpenDir(dir)
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

func loadDemo(db *trac.DB) {
	db.MustExec(`CREATE TABLE Activity (mach_id TEXT, value TEXT, event_time TIMESTAMP)`)
	db.MustExec(`CREATE TABLE Routing (mach_id TEXT, neighbor TEXT, event_time TIMESTAMP)`)
	db.MustExec(`CREATE TABLE Heartbeat (sid TEXT PRIMARY KEY, recency TIMESTAMP)`)
	if db.Shards() > 1 {
		if err := db.PartitionTable("Activity", "mach_id"); err != nil {
			panic(err)
		}
	}
	db.MustExec(`CREATE INDEX idx_activity ON Activity (mach_id)`)
	db.MustExec(`CREATE INDEX idx_routing ON Routing (mach_id)`)
	if err := db.SetSourceColumn("Activity", "mach_id"); err != nil {
		panic(err)
	}
	if err := db.SetSourceColumn("Routing", "mach_id"); err != nil {
		panic(err)
	}
	if err := db.SetColumnDomain("Activity", "value", trac.StringDomain("idle", "busy")); err != nil {
		panic(err)
	}
	db.MustExec(`INSERT INTO Activity VALUES
		('m1', 'idle', '2006-03-11 20:37:46'),
		('m2', 'busy', '2006-02-10 18:22:01'),
		('m3', 'idle', '2006-03-12 10:23:05')`)
	db.MustExec(`INSERT INTO Routing VALUES
		('m1', 'm3', '2006-03-12 23:20:06'),
		('m2', 'm3', '2006-02-10 03:34:21')`)
	hbs := map[string]string{
		"m1": "2006-03-15 14:20:05", "m2": "2006-03-14 17:23:00",
		"m3": "2006-03-15 14:40:05", "m4": "2006-03-15 14:21:05",
		"m5": "2006-03-15 14:22:05", "m6": "2006-03-15 14:23:05",
		"m7": "2006-03-15 14:24:05", "m8": "2006-03-15 14:25:05",
		"m9": "2006-03-15 14:26:05", "m10": "2006-03-15 14:27:05",
		"m11": "2006-03-15 14:28:05",
	}
	for sid, ts := range hbs {
		if err := db.Heartbeat(sid, ts); err != nil {
			panic(err)
		}
	}
}
