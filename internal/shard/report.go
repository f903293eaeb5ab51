package shard

import (
	"fmt"
	"time"

	"trac/internal/core/report"
	"trac/internal/engine"
)

// RecencyReport runs a recency-reported query across the shards: the user
// query and its generated recency query both execute under ONE consistent
// cut (the paper's shared-snapshot requirement lifted to the shard level),
// the per-shard (sid, recency) partials are gathered through the ordinary
// scatter path — the generated query's relevant-source bound is itself a
// partition-key bound, so shard pruning applies to the recency arms exactly
// as it does to user probes — and the classification/summary/temp-table
// stages reuse the single-engine report code verbatim.
//
// Preparation (parse + recency generation) runs against shard 0's catalog,
// which the DDL broadcast keeps identical on every shard, and is cached in
// shard 0's plan cache like any prepared report. Temp tables materialize on
// sess (a shard-0 session): they are replicated nowhere, and the gather
// routes queries over non-partitioned tables to shard 0, so they stay
// queryable through the router.
func (r *Router) RecencyReport(sess *engine.Session, userSQL string, cfg report.Config) (*report.Report, error) {
	if sess.DB() != r.shards[0] {
		return nil, fmt.Errorf("shard: report session must belong to shard 0")
	}
	var (
		p   *report.Prepared
		hit bool
		err error
	)
	start := time.Now()
	if cfg.DisableCache {
		p, err = report.Prepare(r.shards[0], userSQL, cfg)
	} else {
		p, hit, err = report.PrepareCached(r.shards[0], userSQL, cfg)
	}
	if err != nil {
		return nil, err
	}
	genTime := p.GenTime()
	if hit {
		genTime = time.Since(start)
	}

	rep := &report.Report{
		Method:  cfg.Method,
		Minimal: p.Generated.Minimal,
		Reasons: p.Generated.Reasons,
		Empty:   p.Generated.Empty,
	}
	if p.Generated.Stmt != nil {
		rep.RecencySQL = p.Generated.SQL
	}

	// One cut for both queries: a report never mixes shard states.
	cut, err := r.Cut()
	if err != nil {
		return nil, err
	}

	t0 := time.Now()
	res, err := r.QueryStmtAt(p.UserStmt, userSQL, cut)
	if err != nil {
		return nil, err
	}
	rep.Result = res
	rep.Timing.UserQuery = time.Since(t0)

	var pairs []report.SourceRecency
	if p.Generated.Stmt != nil {
		t1 := time.Now()
		rres, err := r.QueryStmtAt(p.Generated.Stmt, p.Generated.SQL, cut)
		if err != nil {
			return nil, fmt.Errorf("report: recency query failed: %w", err)
		}
		rep.Timing.RecencyQuery = time.Since(t1)
		pairs = report.Pairs(rres.Rows)
	}

	t2 := time.Now()
	report.Summarize(rep, pairs, cfg)
	if !cfg.SkipTempTables {
		if err := report.Materialize(sess, rep); err != nil {
			return nil, err
		}
	}
	rep.Timing.Stats = time.Since(t2)
	rep.Timing.Generate = genTime
	rep.CachedPlan = hit
	return rep, nil
}
