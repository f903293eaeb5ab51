// Command trac-shell is an interactive SQL shell over a TRAC database with
// recency reporting built in, in the spirit of the paper's psql session:
//
//	trac-shell -demo          # preload the paper's §5.1 fixture
//	trac-shell -dir ./db      # keep the database in a durable directory
//
// Meta commands:
//
//	\recency <select>         run a query with its recency report
//	\naive <select>           same, using the naive all-sources method
//	\gen <select>             show the generated recency query (not run)
//	\explain <select>         show the physical plan
//	\source <table> <column>  mark a table's data source column
//	\domain <table> <column> v1,v2,...   declare a finite string domain
//	\checkpoint               write a checkpoint epoch (-dir databases): what
//	                          \source and \domain declared becomes durable
//	                          and the write-ahead log starts over
//	\cache                    show plan-cache entries, hits and misses
//	\shards                   per-shard table layout (-shards N databases):
//	                          partition assignment, sealed/tail rows, zone
//	                          source counts
//	\sources [secs]           per-source ingestion health: recency, lag
//	                          behind the freshest source, durable offsets
//	                          (sources more than secs behind are marked
//	                          stale; default 60)
//	\d                        list tables
//	\q                        quit
//
// Anything else (SELECT/INSERT/UPDATE/DELETE/CREATE/DROP/ANALYZE) is
// executed as SQL. With -f FILE the statements in FILE run first ("--"
// lines are comments).
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"trac"
	"trac/internal/demo"
)

func main() {
	withDemo := flag.Bool("demo", false, "preload the paper's example schema and data")
	script := flag.String("f", "", "execute statements from this file before reading stdin")
	shards := flag.Int("shards", 1, "open the database as N hash-partitioned engine shards")
	dir := flag.String("dir", "", "keep the database in this durable directory (recovers what it holds)")
	flag.Parse()

	db, err := demo.Open(*dir, *shards)
	if err != nil {
		fmt.Fprintln(os.Stderr, "trac-shell:", err)
		os.Exit(1)
	}
	switch {
	case *withDemo && len(db.Catalog()) > 0:
		fmt.Println("-demo skipped:", *dir, "already holds tables")
	case *withDemo:
		demo.Load(db)
		fmt.Println("demo fixture loaded: Activity, Routing, Heartbeat (sources m1..m11)")
	}
	sess := db.NewSession()
	defer sess.Close()

	if *script != "" {
		f, err := os.Open(*script)
		if err != nil {
			fmt.Fprintln(os.Stderr, "trac-shell:", err)
			os.Exit(1)
		}
		fsc := bufio.NewScanner(f)
		fsc.Buffer(make([]byte, 0, 64*1024), 1024*1024)
		for fsc.Scan() {
			line := strings.TrimSpace(fsc.Text())
			if line == "" || strings.HasPrefix(line, "--") {
				continue
			}
			dispatch(db, sess, line)
		}
		f.Close()
	}

	// The stdin scanner runs in its own goroutine (it owns and closes
	// lines) so the main loop can also react to SIGINT/SIGTERM: a signal
	// drains the session and closes the database — flushing any attached
	// WAL — instead of abandoning it mid-write.
	sigC := make(chan os.Signal, 1)
	signal.Notify(sigC, syscall.SIGINT, syscall.SIGTERM)
	lines := make(chan string)
	go func() {
		defer close(lines)
		sc := bufio.NewScanner(os.Stdin)
		sc.Buffer(make([]byte, 0, 64*1024), 1024*1024)
		for sc.Scan() {
			lines <- strings.TrimSpace(sc.Text())
		}
	}()

	fmt.Print("trac=# ")
	for {
		select {
		case sig := <-sigC:
			fmt.Printf("\n%s: closing session and database\n", sig)
			shutdown(db, sess)
			return
		case line, ok := <-lines:
			if !ok || line == `\q` {
				shutdown(db, sess)
				return
			}
			dispatch(db, sess, line)
			fmt.Print("trac=# ")
		}
	}
}

// shutdown drops the session's temp tables and closes the database so a
// durable directory's WAL is flushed rather than abandoned.
func shutdown(db *trac.DB, sess *trac.Session) {
	if err := sess.Close(); err != nil {
		fmt.Fprintln(os.Stderr, "trac-shell: session close:", err)
	}
	if err := db.Close(); err != nil {
		fmt.Fprintln(os.Stderr, "trac-shell: close:", err)
	}
}

// dispatch executes one shell line.
func dispatch(db *trac.DB, sess *trac.Session, line string) {
	switch {
	case line == "" || line == `\q`:
	case line == `\d`:
		for _, name := range db.Catalog() {
			fmt.Println(" ", name)
		}
	case strings.HasPrefix(line, `\recency `):
		runReport(sess, strings.TrimPrefix(line, `\recency `))
	case strings.HasPrefix(line, `\naive `):
		runReport(sess, strings.TrimPrefix(line, `\naive `), trac.Naive())
	case strings.HasPrefix(line, `\gen `):
		sql, minimal, reasons, err := db.GenerateRecencyQuery(strings.TrimPrefix(line, `\gen `))
		if err != nil {
			fmt.Println("error:", err)
			break
		}
		if sql == "" {
			fmt.Println("provably no relevant data sources (unsatisfiable predicates)")
			break
		}
		fmt.Println(sql)
		fmt.Printf("guaranteed minimal: %v\n", minimal)
		for _, r := range reasons {
			fmt.Println("  reason:", r)
		}
	case strings.HasPrefix(line, `\explain `):
		notes, err := db.Explain(strings.TrimPrefix(line, `\explain `))
		if err != nil {
			fmt.Println("error:", err)
		} else {
			fmt.Println(notes)
		}
	case strings.HasPrefix(line, `\source `):
		parts := strings.Fields(strings.TrimPrefix(line, `\source `))
		if len(parts) != 2 {
			fmt.Println("usage: \\source <table> <column>")
			break
		}
		if err := db.SetSourceColumn(parts[0], parts[1]); err != nil {
			fmt.Println("error:", err)
		}
	case strings.HasPrefix(line, `\domain `):
		parts := strings.Fields(strings.TrimPrefix(line, `\domain `))
		if len(parts) != 3 {
			fmt.Println("usage: \\domain <table> <column> v1,v2,...")
			break
		}
		vals := strings.Split(parts[2], ",")
		if err := db.SetColumnDomain(parts[0], parts[1], trac.StringDomain(vals...)); err != nil {
			fmt.Println("error:", err)
		}
	case line == `\checkpoint`:
		if err := db.CheckpointDir(); err != nil {
			fmt.Println("error:", err)
		} else {
			fmt.Println("checkpoint written: epoch", db.Engine().Epoch())
		}
	case line == `\sources` || strings.HasPrefix(line, `\sources `):
		showSources(db, strings.TrimSpace(strings.TrimPrefix(line, `\sources`)))
	case line == `\seal` || strings.HasPrefix(line, `\seal `):
		sealTables(db, strings.TrimSpace(strings.TrimPrefix(line, `\seal`)))
	case line == `\shards`:
		showShards(db)
	case line == `\cache`:
		hits, misses := db.Engine().PlanCache().Stats()
		fmt.Printf("plan cache: %d entries, %d hits, %d misses (catalog version %d)\n",
			db.Engine().PlanCache().Len(), hits, misses, db.Engine().CatalogVersion())
	case strings.HasPrefix(line, `\`):
		fmt.Println("unknown meta command; try \\recency, \\gen, \\explain, \\checkpoint, \\cache, \\shards, \\sources, \\seal, \\d, \\q")
	default:
		runSQL(db, line)
	}
}

func runSQL(db *trac.DB, sql string) {
	upper := strings.ToUpper(strings.TrimSpace(sql))
	if strings.HasPrefix(upper, "SELECT") {
		res, err := db.Query(sql)
		if err != nil {
			fmt.Println("error:", err)
			return
		}
		fmt.Print(res.Format())
		return
	}
	n, err := db.Exec(sql)
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	fmt.Printf("OK (%d rows affected)\n", n)
}

// sealTables seals one table (or all) into columnar segments and prints the
// resulting dual-format layout: sealed segment count, rows covered, and the
// remaining unsealed tail per table.
func sealTables(db *trac.DB, arg string) {
	names := db.Catalog()
	if arg != "" {
		names = []string{arg}
	}
	for _, name := range names {
		if _, err := db.Engine().SealTable(name); err != nil {
			fmt.Println("error:", err)
			continue
		}
		tbl, err := db.InternalCatalog().Get(name)
		if err != nil {
			fmt.Println("error:", err)
			continue
		}
		fmt.Printf("  %-16s %4d segments, %d rows sealed, tail %d rows\n",
			tbl.Name, tbl.NumSegments(), tbl.SealedRows(), tbl.NumVersions()-tbl.SealedRows())
	}
}

// showShards prints the per-shard storage layout: which tables are
// hash-partitioned on which column, how each shard's slice is split between
// sealed segments and the unsealed tail, and how many distinct sources its
// zone maps track (the input to shard- and segment-level pruning).
func showShards(db *trac.DB) {
	r := db.Router()
	if r == nil {
		fmt.Println("database is unsharded; restart with -shards N to shard it")
		return
	}
	fmt.Printf("%d shards\n", r.N())
	fmt.Printf("%-6s %-16s %-22s %-9s %-11s %-9s %s\n",
		"shard", "table", "partition", "segments", "sealed", "tail", "zone sources")
	for _, st := range r.Stats() {
		part := "replicated"
		if st.Stats.Partitioned {
			part = fmt.Sprintf("hash(%s) %d/%d", st.Stats.Partition.Column,
				st.Stats.Partition.Index, st.Stats.Partition.Of)
		}
		zs := fmt.Sprintf("%d", st.Stats.ZoneSources)
		if st.Stats.SourcesCapped {
			zs += "+ (capped)"
		}
		fmt.Printf("%-6d %-16s %-22s %-9d %-11d %-9d %s\n",
			st.Shard, st.Table, part, st.Stats.Segments, st.Stats.SealedRows, st.Stats.TailRows, zs)
	}
}

// showSources prints per-source ingestion health from the Heartbeat and
// (when present) SnifferState tables: each source's recency, how far it lags
// the freshest source, and its durable log offset. Sources lagging more than
// the stale threshold (arg in seconds, default 60) are marked stale — the
// degraded-source view a fleet operator scans before trusting a report.
func showSources(db *trac.DB, arg string) {
	staleAfter := 60 * time.Second
	if arg != "" {
		secs, err := strconv.Atoi(arg)
		if err != nil || secs < 0 {
			fmt.Println("usage: \\sources [stale-after-seconds]")
			return
		}
		staleAfter = time.Duration(secs) * time.Second
	}
	hb, err := db.Query(`SELECT sid, recency FROM Heartbeat ORDER BY sid`)
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	if len(hb.Rows) == 0 {
		fmt.Println("no data sources have reported yet")
		return
	}
	type offsets struct{ offset, applied int64 }
	durable := map[string]offsets{}
	if st, err := db.Query(`SELECT sid, log_offset, applied FROM SnifferState`); err == nil {
		for _, row := range st.Rows {
			durable[row[0].String()] = offsets{offset: row[1].Int(), applied: row[2].Int()}
		}
	}
	var freshest time.Time
	for _, row := range hb.Rows {
		if ts := row[1].Time(); ts.After(freshest) {
			freshest = ts
		}
	}
	fmt.Printf("%-12s %-20s %-10s %-8s %-8s %s\n", "sid", "recency", "behind", "offset", "applied", "status")
	for _, row := range hb.Rows {
		sid, ts := row[0].String(), row[1].Time()
		behind := freshest.Sub(ts)
		status := "ok"
		if behind > staleAfter {
			status = "stale"
		}
		off, app := "-", "-"
		if d, ok := durable[sid]; ok {
			off, app = strconv.FormatInt(d.offset, 10), strconv.FormatInt(d.applied, 10)
		}
		fmt.Printf("%-12s %-20s %-10s %-8s %-8s %s\n", sid, row[1].String(), behind, off, app, status)
	}
	fmt.Printf("%d sources, freshest recency %s, stale after %s\n",
		len(hb.Rows), freshest.Format("2006-01-02 15:04:05"), staleAfter)
}

func runReport(sess *trac.Session, sql string, opts ...trac.Option) {
	rep, err := sess.RecencyReport(sql, opts...)
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	fmt.Print(rep.Render())
}
