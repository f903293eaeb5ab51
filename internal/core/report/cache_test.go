package report

import (
	"strings"
	"testing"

	"trac/internal/core/recgen"
)

const idleQuery = `SELECT mach_id FROM Activity WHERE value = 'idle'`

func TestRunHitsPlanCacheOnRepeat(t *testing.T) {
	db := sectionDB(t)
	sess := db.NewSession()
	defer sess.Close()

	first, err := Run(sess, idleQuery, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if first.CachedPlan {
		t.Error("first run cannot be a cache hit")
	}
	second, err := Run(sess, idleQuery, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if !second.CachedPlan {
		t.Error("second run should hit the plan cache")
	}
	if second.RecencySQL != first.RecencySQL {
		t.Errorf("cached plan changed the recency query:\n%q\n%q", first.RecencySQL, second.RecencySQL)
	}
	if len(second.Normal)+len(second.Exceptional) != len(first.Normal)+len(first.Exceptional) {
		t.Errorf("cached plan changed the relevant set: %d vs %d",
			len(second.Normal)+len(second.Exceptional), len(first.Normal)+len(first.Exceptional))
	}
	// Whitespace variants share the entry.
	third, err := Run(sess, "SELECT   mach_id\nFROM Activity  WHERE value = 'idle'", Config{})
	if err != nil {
		t.Fatal(err)
	}
	if !third.CachedPlan {
		t.Error("whitespace variant should hit the cache")
	}
}

func TestDisableCacheSkipsPlanCache(t *testing.T) {
	db := sectionDB(t)
	sess := db.NewSession()
	defer sess.Close()
	for i := 0; i < 2; i++ {
		rep, err := Run(sess, idleQuery, Config{DisableCache: true})
		if err != nil {
			t.Fatal(err)
		}
		if rep.CachedPlan {
			t.Fatalf("run %d used the cache despite DisableCache", i)
		}
	}
	if n := db.PlanCache().Len(); n != 0 {
		t.Errorf("DisableCache populated the cache: %d entries", n)
	}
}

func TestConfigVariantsDoNotShareEntries(t *testing.T) {
	db := sectionDB(t)
	sess := db.NewSession()
	defer sess.Close()
	if _, err := Run(sess, idleQuery, Config{}); err != nil {
		t.Fatal(err)
	}
	rep, err := Run(sess, idleQuery, Config{Method: Naive})
	if err != nil {
		t.Fatal(err)
	}
	if rep.CachedPlan {
		t.Error("naive config must not reuse the focused entry")
	}
	if rep.Method != Naive || len(rep.Normal)+len(rep.Exceptional) != 11 {
		t.Errorf("naive report wrong: method=%v, sources=%d",
			rep.Method, len(rep.Normal)+len(rep.Exceptional))
	}
}

// TestCacheKeySeparatesEveryField: two configs that differ in any one field,
// or in which Heartbeat name holds a given string, never share a key, while
// renderings of one query that differ only in whitespace do.
func TestCacheKeySeparatesEveryField(t *testing.T) {
	variants := []Config{
		{},
		{Method: Naive},
		{Detector: DetectorMAD},
		{ZThreshold: 2.5},
		{SkipStats: true},
		{SkipTempTables: true},
		{Heartbeat: recgen.Options{HeartbeatTable: "hb"}},
		{Heartbeat: recgen.Options{SidColumn: "hb"}},
		{Heartbeat: recgen.Options{RecencyColumn: "hb"}},
		{Heartbeat: recgen.Options{HeartbeatTable: `a"|"b`}},
		{Heartbeat: recgen.Options{HeartbeatTable: "a", SidColumn: "b"}},
	}
	seen := map[string]int{}
	for i, cfg := range variants {
		key := cacheKey(idleQuery, cfg)
		if j, dup := seen[key]; dup {
			t.Errorf("configs %d and %d share the key %q", j, i, key)
		}
		seen[key] = i
	}
	spaced := strings.ReplaceAll(idleQuery, " ", "  \n")
	if cacheKey(spaced, Config{}) != cacheKey(idleQuery, Config{}) {
		t.Error("whitespace variants of one query have different keys")
	}
	if cacheKey(idleQuery, Config{}) == cacheKey(strings.Replace(idleQuery, "idle", "idle ", 1), Config{}) {
		t.Error("queries differing inside a string literal share a key")
	}
}

func TestAddCheckInvalidatesCachedPlan(t *testing.T) {
	// §3.4: a CHECK constraint making the query's predicate unsatisfiable
	// must flip the report to Empty — including for a query whose plan is
	// already cached. A stale cached plan would keep reporting sources.
	db := sectionDB(t)
	sess := db.NewSession()
	defer sess.Close()

	before, err := Run(sess, idleQuery, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if before.Empty || len(before.Normal)+len(before.Exceptional) == 0 {
		t.Fatalf("fixture query should have relevant sources: %+v", before)
	}
	// Prime the cache.
	if rep, err := Run(sess, idleQuery, Config{}); err != nil || !rep.CachedPlan {
		t.Fatalf("cache not primed: %v, %v", rep, err)
	}

	// Machines can no longer legally be idle.
	db.MustExec(`DELETE FROM Activity WHERE value = 'idle'`)
	if err := db.AddCheck("Activity", "value <> 'idle'"); err != nil {
		t.Fatal(err)
	}

	after, err := Run(sess, idleQuery, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if after.CachedPlan {
		t.Error("plan survived a CHECK change; catalog version should have evicted it")
	}
	if !after.Empty {
		t.Errorf("regenerated plan should prove the relevant set empty: %+v", after)
	}
}

func TestDDLInvalidatesCachedPlan(t *testing.T) {
	db := sectionDB(t)
	sess := db.NewSession()
	defer sess.Close()
	if _, err := Run(sess, idleQuery, Config{}); err != nil {
		t.Fatal(err)
	}
	db.MustExec(`CREATE TABLE Extra (x TEXT)`)
	rep, err := Run(sess, idleQuery, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.CachedPlan {
		t.Error("DDL should invalidate cached recency plans")
	}
	// And the re-cached entry hits again.
	rep, err = Run(sess, idleQuery, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.CachedPlan {
		t.Error("re-cached plan should hit")
	}
}

func TestPrepareCachedSharesPrepared(t *testing.T) {
	db := sectionDB(t)
	p1, hit1, err := PrepareCached(db, idleQuery, Config{})
	if err != nil {
		t.Fatal(err)
	}
	p2, hit2, err := PrepareCached(db, idleQuery, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if hit1 || !hit2 {
		t.Errorf("hits = %v, %v; want false, true", hit1, hit2)
	}
	if p1 != p2 {
		t.Error("cache should return the same Prepared instance")
	}
}
