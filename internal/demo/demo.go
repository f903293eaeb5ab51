// Package demo is what trac-shell and trac-server share: opening the
// database their -dir/-shards flags describe, and the paper's §5.1 fixture
// their -demo flag preloads.
package demo

import (
	"fmt"

	"trac"
)

// Open opens the in-memory database, or recovers the durable directory.
func Open(dir string, shards int) (*trac.DB, error) {
	switch {
	case dir == "":
		return trac.Open(trac.WithShards(shards)), nil
	case shards > 1:
		return nil, fmt.Errorf("-dir with -shards %d: %w", shards, trac.ErrShardedDir)
	}
	return trac.OpenDir(dir)
}

// Load creates the Activity/Routing/Heartbeat fixture (sources m1..m11).
func Load(db *trac.DB) {
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
