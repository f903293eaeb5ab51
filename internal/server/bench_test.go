package server_test

import (
	"context"
	"net"
	"slices"
	"strings"
	"testing"
	"time"

	"trac"
	tracclient "trac/client/trac"
	"trac/internal/server"
	"trac/internal/workload"
)

// BenchmarkWireRoundTrip times one closed-loop client's statements over
// loopback beside the same statements run embedded: the difference is what
// the serving path adds to a request. The statements are the two forms the
// repository benchmark's wire_point workload sends — the rows of one source,
// and the three-source join through Routing — on a smaller table. ns/op is a
// mean and hides the spread a goroutine hand-off adds, so each case also
// reports its mean and median in microseconds.
func BenchmarkWireRoundTrip(b *testing.B) {
	eng, err := workload.Build(workload.Spec{TotalRows: 20_000, DataSources: 2_000})
	if err != nil {
		b.Fatal(err)
	}
	db := trac.WrapEngine(eng)
	srv, err := server.New(server.Config{DB: db})
	if err != nil {
		b.Fatal(err)
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	served := make(chan error, 1)
	go func() { served <- srv.Serve(l) }()
	c, err := tracclient.Dial(l.Addr().String())
	if err != nil {
		b.Fatal(err)
	}
	sess := db.NewSession()
	defer func() {
		sess.Close()
		c.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
		if err := <-served; err != nil {
			b.Errorf("Serve: %v", err)
		}
	}()

	quoted := func(srcs ...int) string {
		names := make([]string, len(srcs))
		for i, s := range srcs {
			names[i] = "'" + workload.SourceName(s) + "'"
		}
		return strings.Join(names, ",")
	}
	point := `SELECT value, event_time FROM Activity WHERE mach_id = ` + quoted(7)
	list := quoted(11, 12, 13)
	join := `SELECT COUNT(*) FROM Routing R, Activity A WHERE R.mach_id IN (` + list +
		`) AND A.mach_id IN (` + list + `) AND R.neighbor = A.mach_id AND A.value = 'idle'`

	cases := []struct {
		name string
		op   func() error
	}{
		{"wire/ping", c.Ping},
		{"wire/query-point", func() error { _, err := c.Query(point); return err }},
		{"embedded/query-point", func() error { _, err := db.Query(point); return err }},
		{"wire/report-point", func() error { _, err := c.Report(point, tracclient.WithoutTempTables()); return err }},
		{"embedded/report-point", func() error { _, err := sess.RecencyReport(point, trac.WithoutTempTables()); return err }},
		{"wire/query-join", func() error { _, err := c.Query(join); return err }},
		{"embedded/query-join", func() error { _, err := db.Query(join); return err }},
		{"wire/report-join", func() error { _, err := c.Report(join, tracclient.WithoutTempTables()); return err }},
		{"embedded/report-join", func() error { _, err := sess.RecencyReport(join, trac.WithoutTempTables()); return err }},
	}
	for _, tc := range cases {
		b.Run(tc.name, func(b *testing.B) {
			if err := tc.op(); err != nil { // plan cache warm, connection buffers grown
				b.Fatal(err)
			}
			lat := make([]time.Duration, b.N)
			b.ResetTimer()
			for i := range lat {
				start := time.Now()
				if err := tc.op(); err != nil {
					b.Fatal(err)
				}
				lat[i] = time.Since(start)
			}
			b.StopTimer()
			slices.Sort(lat)
			var sum time.Duration
			for _, d := range lat {
				sum += d
			}
			us := func(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
			b.ReportMetric(us(sum)/float64(len(lat)), "mean-µs/op")
			b.ReportMetric(us(lat[len(lat)/2]), "p50-µs/op")
		})
	}
}
