package main

import (
	"fmt"
	"regexp"
	"strconv"

	"trac/internal/core/recgen"
	"trac/internal/core/report"
	"trac/internal/engine"
	"trac/internal/exec"
	"trac/internal/planner"
	"trac/internal/server"
	"trac/internal/shard"
	"trac/internal/sqlparser"
	"trac/internal/txn"
	"trac/internal/types"
)

// stagedPipeline replays a report the way report.Run and
// Router.RecencyReport run it, but one public call at a time with a span
// around each: normalise, plan-cache lookup, on a miss parse and generate,
// snapshot or cut, plan and drain the user query, plan and drain the recency
// query, summarise, materialise, and for the wire workload a scheduler
// hand-off and the report's encode and decode. It keeps a plan cache of its
// own, of the engine's size and type, so the hit ratio it sees is the one
// the engine's cache has on the same texts.
type stagedPipeline struct {
	eng    *engine.DB    // the engine, or shard 0 of the router
	router *shard.Router // nil when not sharded
	cfg    report.Config
	cache  *engine.PlanCache
	sched  *server.Scheduler // non-nil: the report would cross the wire

	hits, lookups     int
	minimal, prepared int
	plans, vectorized int
	parallelSum       int
	rowsOut           int
	reportBytes       []float64
	notes             noteStats
	explained         map[string]bool
}

// prepared is what the plan cache holds for one report text.
type preparedReport struct {
	sel *sqlparser.SelectStmt
	gen *recgen.Generated
}

func newStagedPipeline(eng *engine.DB, router *shard.Router, cfg report.Config) *stagedPipeline {
	if router != nil {
		eng = router.Shard(0)
	}
	return &stagedPipeline{eng: eng, router: router, cfg: cfg,
		cache: engine.NewPlanCache(0), explained: make(map[string]bool)}
}

func (p *stagedPipeline) refresh(tr *tracer, stmts []gstmt) error {
	root := tr.begin(spRefresh, -1)
	defer func() { tr.end(root); tr.refresh++ }()
	s := tr.begin(spSession, root)
	sess := p.eng.NewSession()
	tr.end(s)
	for _, st := range stmts {
		if err := p.report(tr, root, sess, st.sql); err != nil {
			return err
		}
	}
	s = tr.begin(spSession, root)
	err := sess.Close()
	tr.end(s)
	return err
}

func (p *stagedPipeline) report(tr *tracer, root int32, sess *engine.Session, sql string) error {
	st := tr.begin(spStmt, root)
	defer tr.end(st)

	if p.sched != nil {
		// Every request on the wire is handed to a scheduler worker.
		s := tr.begin(spSubmit, st)
		started := make(chan struct{})
		err := p.sched.Submit(&server.Task{Run: func() { close(started) }, Shed: func(uint8) { close(started) }})
		<-started
		tr.end(s)
		if err != nil {
			return err
		}
	}

	s := tr.begin(spNormalize, st)
	key := "report:" + engine.NormalizeSQL(sql)
	tr.end(s)
	version := p.eng.CatalogVersion()
	s = tr.begin(spCacheGet, st)
	v, hit := p.cache.Get(key, version)
	tr.end(s)
	p.lookups++
	var prep *preparedReport
	if hit {
		p.hits++
		prep = v.(*preparedReport)
	} else {
		s = tr.begin(spParse, st)
		sel, err := sqlparser.ParseSelect(sql)
		tr.end(s)
		if err != nil {
			return err
		}
		s = tr.begin(spGenerate, st)
		gen, err := recgen.Generate(sel, p.eng.Catalog(), p.cfg.Heartbeat)
		tr.end(s)
		if err != nil {
			return err
		}
		prep = &preparedReport{sel, gen}
		s = tr.begin(spCachePut, st)
		p.cache.Put(key, version, prep)
		tr.end(s)
		p.prepared++
		if gen.Minimal {
			p.minimal++
		}
	}

	rep := &report.Report{Method: p.cfg.Method, Minimal: prep.gen.Minimal, Reasons: prep.gen.Reasons,
		Empty: prep.gen.Empty, RecencySQL: prep.gen.SQL}
	var recency [][]types.Value
	if p.router != nil {
		s = tr.begin(spCut, st)
		cut, err := p.router.Cut()
		tr.end(s)
		if err != nil {
			return err
		}
		s = tr.begin(spShardUser, st)
		res, err := p.router.QueryStmtAt(prep.sel, sql, cut)
		tr.end(s)
		if err != nil {
			return err
		}
		rep.Result = res
		if prep.gen.Stmt != nil {
			s = tr.begin(spShardRecency, st)
			rres, err := p.router.QueryStmtAt(prep.gen.Stmt, prep.gen.SQL, cut)
			tr.end(s)
			if err != nil {
				return err
			}
			recency = rres.Rows
		}
		if err := p.explain(sql); err != nil {
			return err
		}
	} else {
		s = tr.begin(spSnapshot, st)
		snap := p.eng.Snapshot()
		tr.end(s)
		res, err := p.planAndDrain(tr, st, prep.sel, snap, spPlanUser, spDrainUser)
		if err != nil {
			return err
		}
		rep.Result = res
		if prep.gen.Stmt != nil {
			rres, err := p.planAndDrain(tr, st, prep.gen.Stmt, snap, spPlanRecency, spDrainRecency)
			if err != nil {
				return err
			}
			recency = rres.Rows
		}
	}

	s = tr.begin(spSummarize, st)
	pairs := make([]report.SourceRecency, 0, len(recency))
	for _, row := range recency {
		if len(row) < 2 || row[0].IsNull() || row[1].IsNull() {
			continue
		}
		pairs = append(pairs, report.SourceRecency{Sid: row[0].String(), Recency: row[1].Time()})
	}
	report.Summarize(rep, pairs, p.cfg)
	tr.end(s)
	if !p.cfg.SkipTempTables {
		s = tr.begin(spMaterialize, st)
		err := report.Materialize(sess, rep)
		tr.end(s)
		if err != nil {
			return err
		}
	}

	if p.sched != nil {
		s = tr.begin(spEncode, st)
		payload := server.EncodeReport(wireReport(rep))
		tr.end(s)
		p.reportBytes = append(p.reportBytes, float64(len(payload)))
		s = tr.begin(spDecode, st)
		_, err := server.DecodeReport(payload)
		tr.end(s)
		if err != nil {
			return err
		}
	}
	return nil
}

// planAndDrain is engine.QueryStmtAt taken apart.
func (p *stagedPipeline) planAndDrain(tr *tracer, parent int32, sel *sqlparser.SelectStmt, snap txn.Snapshot, planKind, drainKind spanKind) (*engine.Result, error) {
	s := tr.begin(planKind, parent)
	plan, err := p.eng.Planner().PlanSelect(sel, snap)
	tr.end(s)
	if err != nil {
		return nil, err
	}
	s = tr.begin(drainKind, parent)
	rows, err := exec.Drain(plan.Root)
	tr.end(s)
	if err != nil {
		return nil, err
	}
	p.notePlan(plan)
	p.rowsOut += len(rows)
	return &engine.Result{Columns: plan.Columns, Rows: rows, Parallel: plan.Parallel, Vectorized: plan.Vectorized}, nil
}

func (p *stagedPipeline) notePlan(plan *planner.Plan) {
	p.plans++
	if plan.Vectorized {
		p.vectorized++
	}
	p.parallelSum += max(plan.Parallel, 1)
	p.notes.add(plan.Describe())
}

// explain reads a sharded statement's scatter and first-shard plan notes,
// once per text and outside every span: the router plans inside
// QueryStmtAt, where the benchmark cannot see.
func (p *stagedPipeline) explain(sql string) error {
	if p.explained[sql] {
		return nil
	}
	p.explained[sql] = true
	text, err := p.router.Explain(sql)
	if err != nil {
		return err
	}
	p.notes.add(text)
	return nil
}

// wireReport flattens a report for the codec the way the server does.
func wireReport(rep *report.Report) *server.Report {
	pairs := func(ps []report.SourceRecency) []server.SourceRecency {
		out := make([]server.SourceRecency, len(ps))
		for i, p := range ps {
			out[i] = server.SourceRecency{Sid: p.Sid, Recency: p.Recency}
		}
		return out
	}
	return &server.Report{
		Result: &server.Result{Columns: rep.Result.Columns, Rows: rep.Result.Rows,
			Parallel: rep.Result.Parallel, Vectorized: rep.Result.Vectorized},
		RecencySQL: rep.RecencySQL, Minimal: rep.Minimal, Reasons: rep.Reasons, Empty: rep.Empty,
		Normal: pairs(rep.Normal), Exceptional: pairs(rep.Exceptional),
		Least: server.SourceRecency{Sid: rep.Least.Sid, Recency: rep.Least.Recency},
		Most:  server.SourceRecency{Sid: rep.Most.Sid, Recency: rep.Most.Recency},
		Bound: rep.Bound, NormalTable: rep.NormalTable, ExceptionalTable: rep.ExceptionalTable,
	}
}

// noteStats adds up what the planner's notes say about storage and shards.
type noteStats struct {
	texts                                   int
	pruned, scanned, statAnswered, tailRows int
	shardsTouched, shardNotes               int
}

var (
	scanNote  = regexp.MustCompile(`segments (\d+)/(\d+) pruned, tail (\d+) rows`)
	aggNote   = regexp.MustCompile(`agg: (\d+) segments answered from stats, (\d+) scanned, (\d+) pruned, tail (\d+) rows`)
	shardNote = regexp.MustCompile(`shards: (\d+) of (\d+)`)
)

func atoi(s string) int {
	n, _ := strconv.Atoi(s)
	return n
}

func (n *noteStats) add(text string) {
	n.texts++
	if m := aggNote.FindStringSubmatch(text); m != nil {
		// A stat-answered aggregate replaces the scan its note sits under.
		n.statAnswered += atoi(m[1])
		n.scanned += atoi(m[2])
		n.pruned += atoi(m[3])
		n.tailRows += atoi(m[4])
	} else {
		for _, m := range scanNote.FindAllStringSubmatch(text, -1) {
			n.pruned += atoi(m[1])
			n.scanned += atoi(m[2]) - atoi(m[1])
			n.tailRows += atoi(m[3])
		}
	}
	for _, m := range shardNote.FindAllStringSubmatch(text, -1) {
		n.shardsTouched += atoi(m[1])
		n.shardNotes++
	}
}

// layerStats turns the pipeline's counters into per-layer metrics.
func (p *stagedPipeline) layerStats(m map[string]float64) {
	texts := float64(p.notes.texts)
	m["engine.plancache_hit_ratio"] = ratio(float64(p.hits), float64(p.lookups))
	m["core.recgen_minimal_share"] = ratio(float64(p.minimal), float64(p.prepared))
	m["exec.rows_out"] = ratio(float64(p.rowsOut), float64(p.plans))
	m["exec.vectorized_share"] = ratio(float64(p.vectorized), float64(p.plans))
	m["exec.parallel_degree"] = ratio(float64(p.parallelSum), float64(p.plans))
	m["storage.segments_pruned"] = ratio(float64(p.notes.pruned), texts)
	m["storage.segments_scanned"] = ratio(float64(p.notes.scanned), texts)
	m["storage.segments_stat_answered"] = ratio(float64(p.notes.statAnswered), texts)
	m["storage.tail_rows"] = ratio(float64(p.notes.tailRows), texts)
	m["shard.shards_touched_per_stmt"] = ratio(float64(p.notes.shardsTouched), float64(p.notes.shardNotes))
	m["server.codec_report_bytes"] = median(p.reportBytes)
}

// parseAllocs counts the allocations of one sqlparser.ParseSelect call.
func parseAllocs(sql string) (float64, error) {
	const calls = 200
	m0 := readMem()
	for i := 0; i < calls; i++ {
		if _, err := sqlparser.ParseSelect(sql); err != nil {
			return 0, fmt.Errorf("parse %q: %w", sql, err)
		}
	}
	return float64(readMem().Mallocs-m0.Mallocs) / calls, nil
}
