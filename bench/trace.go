package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"time"
)

// spanKind names one traced call. Spans are recorded by the benchmark
// around its own calls into the program's public functions; nothing inside
// the program is instrumented.
type spanKind uint8

const (
	spRefresh      spanKind = iota // one staged dashboard refresh
	spStmt                         // one statement of it
	spSession                      // NewSession / Session.Close
	spNormalize                    // engine.NormalizeSQL
	spCacheGet                     // PlanCache.Get
	spCachePut                     // PlanCache.Put
	spParse                        // sqlparser.ParseSelect
	spGenerate                     // recgen.Generate
	spSnapshot                     // DB.Snapshot
	spPlanUser                     // Planner.PlanSelect, user query
	spPlanRecency                  // Planner.PlanSelect, recency query
	spDrainUser                    // exec.Drain, user query
	spDrainRecency                 // exec.Drain, recency query
	spCut                          // Router.Cut
	spShardUser                    // Router.QueryStmtAt, user query
	spShardRecency                 // Router.QueryStmtAt, recency query
	spSummarize                    // report.Summarize
	spMaterialize                  // report.Materialize
	spEncode                       // server.EncodeReport
	spDecode                       // server.DecodeReport
	spSubmit                       // Scheduler.Submit, until the task starts
	numSpanKinds
)

// layer is the package a span's self time is charged to.
type layer uint8

const (
	lyBench layer = iota // the benchmark's own glue; never counted as coverage
	lyServer
	lySQLParser
	lyEngine
	lyRecgen
	lyReport
	lyPlanner
	lyExec // exec and the storage it scans: storage has no call of its own to time
	lyShard
	numLayers
)

var layerNames = [numLayers]string{
	"bench", "server", "sqlparser", "engine", "core.recgen", "core.report", "planner", "exec", "shard",
}

var spanInfo = [numSpanKinds]struct {
	name  string
	layer layer
}{
	spRefresh:      {"bench.refresh", lyBench},
	spStmt:         {"bench.stmt", lyBench},
	spSession:      {"engine.session", lyEngine},
	spNormalize:    {"engine.normalize", lyEngine},
	spCacheGet:     {"engine.plancache_get", lyEngine},
	spCachePut:     {"engine.plancache_put", lyEngine},
	spParse:        {"sqlparser.parse", lySQLParser},
	spGenerate:     {"core.recgen_generate", lyRecgen},
	spSnapshot:     {"engine.snapshot", lyEngine},
	spPlanUser:     {"planner.plan_user", lyPlanner},
	spPlanRecency:  {"planner.plan_recency", lyPlanner},
	spDrainUser:    {"exec.drain_user", lyExec},
	spDrainRecency: {"exec.drain_recency", lyExec},
	spCut:          {"shard.cut", lyShard},
	spShardUser:    {"shard.query_user", lyShard},
	spShardRecency: {"shard.query_recency", lyShard},
	spSummarize:    {"core.report_summarize", lyReport},
	spMaterialize:  {"core.report_materialize", lyReport},
	spEncode:       {"server.codec_encode_report", lyServer},
	spDecode:       {"server.codec_decode_report", lyServer},
	spSubmit:       {"server.sched_submit", lyServer},
}

// span is one timed call: kind, the span that caused it, the refresh it
// belongs to, and start/end in nanoseconds since the tracer was made.
type span struct {
	kind       spanKind
	parent     int32
	refresh    int32
	start, end int64
}

// tracer keeps spans in memory; nothing is written until the run ends.
type tracer struct {
	t0      time.Time
	spans   []span
	refresh int32
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), spans: make([]span, 0, 1<<16)}
}

func (t *tracer) begin(kind spanKind, parent int32) int32 {
	t.spans = append(t.spans, span{kind: kind, parent: parent, refresh: t.refresh, start: int64(time.Since(t.t0))})
	return int32(len(t.spans) - 1)
}

func (t *tracer) end(id int32) { t.spans[id].end = int64(time.Since(t.t0)) }

// traceSummary is what the spans reduce to.
type traceSummary struct {
	// kindUS holds every span's duration in microseconds, by kind.
	kindUS [numSpanKinds][]float64
	// layerMS is, per staged refresh, each layer's self time in
	// milliseconds: a span's duration minus what its child spans cover.
	layerMS [numLayers][]float64
	// coveredMS is per refresh the self time of every layer but the
	// benchmark's glue; refreshMS is the refresh span itself.
	coveredMS, refreshMS []float64
}

func (t *tracer) summarize() *traceSummary {
	self := make([]int64, len(t.spans))
	for i, s := range t.spans {
		self[i] += s.end - s.start
		if s.parent >= 0 {
			self[s.parent] -= s.end - s.start
		}
	}
	sum := &traceSummary{}
	var perRefresh [numLayers]int64
	flush := func() {
		covered := int64(0)
		for l := layer(0); l < numLayers; l++ {
			sum.layerMS[l] = append(sum.layerMS[l], ms(time.Duration(perRefresh[l])))
			if l != lyBench {
				covered += perRefresh[l]
			}
		}
		sum.coveredMS = append(sum.coveredMS, ms(time.Duration(covered)))
		perRefresh = [numLayers]int64{}
	}
	// Spans of one refresh are contiguous and start with its spRefresh.
	for i, s := range t.spans {
		if s.kind == spRefresh {
			if i > 0 {
				flush()
			}
			sum.refreshMS = append(sum.refreshMS, ms(time.Duration(s.end-s.start)))
		}
		sum.kindUS[s.kind] = append(sum.kindUS[s.kind], us(time.Duration(s.end-s.start)))
		perRefresh[spanInfo[s.kind].layer] += self[i]
	}
	if len(t.spans) > 0 {
		flush()
	}
	return sum
}

// traceFileRefreshes bounds the trace file: every span feeds the metrics,
// but only the first refreshes are written out, enough to read a tree by eye.
const traceFileRefreshes = 32

type spanJSON struct {
	ID      int    `json:"id"`
	Name    string `json:"name"`
	Parent  int    `json:"parent"`
	Refresh int    `json:"refresh"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
}

// write dumps the provenance, the per-layer metrics and the first spans to
// <dir>/trace-<workload>.json.
func (t *tracer) write(dir, workload string, prov *provenance, metrics map[string]metric) error {
	var out []spanJSON
	for i, s := range t.spans {
		if s.refresh >= traceFileRefreshes {
			break
		}
		out = append(out, spanJSON{i, spanInfo[s.kind].name, int(s.parent), int(s.refresh), s.start, s.end})
	}
	doc := struct {
		Provenance *provenance       `json:"provenance"`
		Metrics    map[string]metric `json:"metrics"`
		SpanCount  int               `json:"span_count"`
		Spans      []spanJSON        `json:"spans"`
	}{prov, metrics, len(t.spans), out}
	b, err := json.MarshalIndent(doc, "", " ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, "trace-"+workload+".json"), b, 0o644)
}
