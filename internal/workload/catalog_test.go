package workload_test

import (
	"testing"

	"trac/internal/engine"
	"trac/internal/shard"
	"trac/internal/workload"
)

// workloadDDL is the schema Build and BuildSharded create through Exec.
var workloadDDL = []string{
	`CREATE TABLE Activity (mach_id TEXT, value TEXT, event_time TIMESTAMP)`,
	`CREATE TABLE Routing (mach_id TEXT, neighbor TEXT, event_time TIMESTAMP)`,
	`CREATE TABLE Heartbeat (sid TEXT PRIMARY KEY, recency TIMESTAMP)`,
}

// TestBuildBumpsCatalogVersion: Build declares source columns and a value
// domain behind Exec's back, so it must bump the catalog version itself, or
// a plan cached between its DDL and its metadata would outlive the metadata.
// The database it returns is past one that ran the same DDL alone.
func TestBuildBumpsCatalogVersion(t *testing.T) {
	db, err := workload.Build(workload.Spec{TotalRows: 100, DataSources: 10})
	if err != nil {
		t.Fatal(err)
	}
	ddlOnly := engine.New()
	for _, sql := range workloadDDL {
		ddlOnly.MustExec(sql)
	}
	if got, ddl := db.CatalogVersion(), ddlOnly.CatalogVersion(); got <= ddl {
		t.Errorf("catalog version after Build = %d, no later than its DDL's %d", got, ddl)
	}
}

// TestBuildShardedBumpsCatalogVersion is the same for BuildSharded, on every
// shard, whose versions must also stay equal for a cut to be taken.
func TestBuildShardedBumpsCatalogVersion(t *testing.T) {
	r, err := workload.BuildSharded(workload.Spec{TotalRows: 100, DataSources: 10}, 3)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	ddlOnly, err := shard.New(3)
	if err != nil {
		t.Fatal(err)
	}
	defer ddlOnly.Close()
	for _, sql := range workloadDDL {
		if _, err := ddlOnly.Exec(sql); err != nil {
			t.Fatal(err)
		}
	}
	if err := ddlOnly.Partition("Activity", "mach_id"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < r.N(); i++ {
		if got, ddl := r.Shard(i).CatalogVersion(), ddlOnly.Shard(i).CatalogVersion(); got <= ddl {
			t.Errorf("shard %d: catalog version after BuildSharded = %d, no later than its DDL's %d", i, got, ddl)
		}
	}
	if _, err := r.Cut(); err != nil {
		t.Errorf("cut after BuildSharded: %v", err)
	}
}
