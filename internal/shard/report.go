package shard

import (
	"fmt"

	"trac/internal/core/report"
	"trac/internal/engine"
)

// RecencyReport runs a recency-reported query across the shards. It is the
// single report path (report.RunAt) with the read point pinned by a Cut, so
// the user query and its recency query see one state of every shard; both
// then gather through the ordinary scatter path, where the recency query's
// relevant-source bound prunes shards like any partition-key bound. sess
// must be a shard-0 session: temp tables materialize there, and the gather
// routes non-partitioned tables to shard 0, so they stay queryable.
func (r *Router) RecencyReport(sess *engine.Session, userSQL string, cfg report.Config) (*report.Report, error) {
	if sess.DB() != r.shards[0] {
		return nil, fmt.Errorf("shard: report session must belong to shard 0")
	}
	return report.RunAt(sess, userSQL, cfg, r.pin)
}
