package report_test

import (
	"testing"

	"trac/internal/core/report"
	"trac/internal/workload"
)

// BenchmarkRecencyReport runs two reports through a 4-shard router over
// 2,000 sources. "pinned" is Q1, whose recency query names its six probe
// sources, so its recency leg runs after the user query. "wide" is Q2, for
// which every source but the probes is relevant, so its recency leg runs
// beside the user query when GOMAXPROCS > 1. Run it at -cpu 1,2: at 1 both
// reports run their legs in turn. Each run checks the relevant-source count.
func BenchmarkRecencyReport(b *testing.B) {
	const sources = 2000
	r, err := workload.BuildSharded(workload.Spec{TotalRows: 10 * sources, DataSources: sources, StaleSources: 10}, 4)
	if err != nil {
		b.Fatal(err)
	}
	for _, bc := range []struct{ name, query string }{{"pinned", "Q1"}, {"wide", "Q2"}} {
		sql, err := workload.Query(bc.query)
		if err != nil {
			b.Fatal(err)
		}
		want, err := workload.ExpectedRelevant(bc.query, sources)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(bc.name, func(b *testing.B) {
			sess := r.Shard(0).NewSession()
			defer sess.Close()
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				rep, err := r.RecencyReport(sess, sql, report.Config{SkipTempTables: true})
				if err != nil {
					b.Fatal(err)
				}
				if got := len(rep.Normal) + len(rep.Exceptional); got != want {
					b.Fatalf("%d relevant sources, want %d", got, want)
				}
			}
		})
	}
}
