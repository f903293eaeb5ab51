// Package sniffer implements the monitoring-side loaders of the paper: one
// sniffer per data source tails that source's event log, transforms the
// records into relational updates, applies them to the central database in
// atomic batches, and maintains the source's Heartbeat recency timestamp.
//
// Sniffers progress independently and at different rates — that asymmetry
// is precisely what creates the recency/consistency problem TRAC reports
// on, so the package exposes per-sniffer lag and pause controls for
// experiments and failure injection.
package sniffer

import (
	"trac/internal/engine"
	"trac/internal/types"
)

// Schema names used by the monitoring database. They follow the paper's
// running examples (§3.3, §4.1, §4.2).
const (
	ActivityTable  = "Activity"
	RoutingTable   = "Routing"
	SchedulerTable = "S"
	RunningTable   = "R"
	JobLogTable    = "JobLog"
	HeartbeatTable = "Heartbeat"
	// SnifferStateTable holds each sniffer's durable resume point: the log
	// offset it has applied through, committed in the same transaction as
	// the events themselves (exactly-once resume after a crash).
	SnifferStateTable = "SnifferState"
)

// InstallSchema creates the monitoring tables, marks their data source
// columns, sets the finite domain on Activity.value, and builds B-tree
// indexes on every source column (as the paper's evaluation does).
//
// It is idempotent: tables that already exist are left alone and duplicate
// index builds are no-ops, so a deployment that crashed partway through the
// install (or recovered an older subset from its WAL) can simply call it
// again to finish the job.
func InstallSchema(db *engine.DB) error {
	tables := []struct{ name, ddl string }{
		{ActivityTable, `CREATE TABLE Activity (mach_id TEXT, value TEXT, event_time TIMESTAMP)`},
		{RoutingTable, `CREATE TABLE Routing (mach_id TEXT, neighbor TEXT, event_time TIMESTAMP)`},
		{SchedulerTable, `CREATE TABLE S (schedMachineId TEXT, jobId TEXT, remoteMachineId TEXT, job_user TEXT)`},
		{RunningTable, `CREATE TABLE R (runningMachineId TEXT, jobId TEXT)`},
		{JobLogTable, `CREATE TABLE JobLog (mach_id TEXT, job_id TEXT, event TEXT, event_time TIMESTAMP)`},
		{HeartbeatTable, `CREATE TABLE Heartbeat (sid TEXT PRIMARY KEY, recency TIMESTAMP)`},
		{SnifferStateTable, `CREATE TABLE SnifferState (sid TEXT PRIMARY KEY, log_offset BIGINT, applied BIGINT, last_ts TIMESTAMP)`},
	}
	for _, tbl := range tables {
		if _, err := db.Catalog().Get(tbl.name); err == nil {
			continue
		}
		if _, err := db.Exec(tbl.ddl); err != nil {
			return err
		}
	}
	indexes := []string{
		`CREATE INDEX idx_activity_mach ON Activity (mach_id)`,
		`CREATE INDEX idx_routing_mach ON Routing (mach_id)`,
		`CREATE INDEX idx_s_sched ON S (schedMachineId)`,
		`CREATE INDEX idx_s_job ON S (jobId)`,
		`CREATE INDEX idx_r_run ON R (runningMachineId)`,
		`CREATE INDEX idx_r_job ON R (jobId)`,
		`CREATE INDEX idx_joblog_mach ON JobLog (mach_id)`,
	}
	for _, sql := range indexes {
		if _, err := db.Exec(sql); err != nil {
			return err
		}
	}
	return InstallMetadata(db)
}

// InstallMetadata marks the data source columns and finite domains on the
// monitoring tables. It is idempotent and separate from InstallSchema
// because this metadata is API-level, not SQL: a database recovered from a
// WAL (which replays SQL only) re-applies it with this call.
func InstallMetadata(db *engine.DB) error {
	sourceCols := map[string]string{
		ActivityTable:  "mach_id",
		RoutingTable:   "mach_id",
		SchedulerTable: "schedMachineId",
		RunningTable:   "runningMachineId",
		JobLogTable:    "mach_id",
	}
	for table, col := range sourceCols {
		tbl, err := db.Catalog().Get(table)
		if err != nil {
			return err
		}
		if err := tbl.Schema.SetSourceColumn(col); err != nil {
			return err
		}
	}
	// Finite domains where the paper's examples rely on them.
	act, err := db.Catalog().Get(ActivityTable)
	if err != nil {
		return err
	}
	act.Schema.Columns[1].Domain = types.FiniteStringDomain("busy", "idle")
	jl, err := db.Catalog().Get(JobLogTable)
	if err != nil {
		return err
	}
	jl.Schema.Columns[2].Domain = types.FiniteStringDomain("finish", "route", "start", "submit")
	// Source columns and domains change which recency plans are valid;
	// invalidate anything compiled before the metadata landed.
	db.Catalog().BumpVersion()
	return nil
}

// RegisterSource ensures a Heartbeat row exists for a source, with a zero
// recency until its first report ("every contributing data source in a
// system has an entry in the Heartbeat table"). A registered source keeps
// its recency.
func RegisterSource(db *engine.DB, sid string, epoch types.Value) error {
	b := db.BeginBatch()
	defer b.Abort()
	if err := upsertHeartbeat(b, sid, col("recency"), epoch); err != nil {
		return err
	}
	return b.Commit()
}
