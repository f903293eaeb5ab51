package workload

import (
	"fmt"
	"sort"

	"trac/internal/core/recgen"
	"trac/internal/engine"
	"trac/internal/exec"
	"trac/internal/sqlparser"
	"trac/internal/storage"
)

// AdHocCorpus is the non-generated half of the equivalence corpus: shapes
// covering NULL/UNKNOWN predicates, ordering, DISTINCT, joins and UNION over
// the workload tables plus the NullProbe fixture.
var AdHocCorpus = []string{
	`SELECT mach_id, value FROM Activity WHERE value = 'idle'`,
	`SELECT mach_id FROM Activity WHERE value <> 'idle' AND event_time > '2006-03-15 00:00:30'`,
	`SELECT COUNT(*), MIN(event_time), MAX(event_time) FROM Activity`,
	`SELECT value, COUNT(*) FROM Activity GROUP BY value ORDER BY value`,
	`SELECT DISTINCT value FROM Activity ORDER BY value`,
	`SELECT A.mach_id FROM Activity A, Routing R WHERE A.mach_id = R.neighbor AND A.value = 'busy' ORDER BY A.mach_id LIMIT 20`,
	`SELECT mach_id FROM Activity WHERE value LIKE 'b%' ORDER BY mach_id LIMIT 10`,
	`SELECT mach_id FROM Activity WHERE value IN ('idle') UNION SELECT mach_id FROM Routing WHERE neighbor = 'Tao1'`,
	// NULL/UNKNOWN semantics over a table with NULLs in every column.
	`SELECT id FROM NullProbe WHERE name = 'idle'`,
	`SELECT id FROM NullProbe WHERE name <> 'idle'`,
	`SELECT id FROM NullProbe WHERE score > 0.4`,
	`SELECT id FROM NullProbe WHERE score <= 0.4`,
	`SELECT id FROM NullProbe WHERE name IN ('idle', 'down')`,
	`SELECT id FROM NullProbe WHERE name NOT IN ('idle')`,
	`SELECT id FROM NullProbe WHERE name IN ('idle', NULL)`,
	`SELECT id FROM NullProbe WHERE name NOT IN ('idle', NULL)`,
	`SELECT id FROM NullProbe WHERE score BETWEEN 0.1 AND 0.5`,
	`SELECT id FROM NullProbe WHERE name IS NULL`,
	`SELECT id FROM NullProbe WHERE name IS NOT NULL AND score IS NULL`,
	`SELECT id FROM NullProbe WHERE name = 'idle' OR score > 0.45`,
	`SELECT n.id, a.value FROM NullProbe n, Activity a WHERE n.name = a.value AND a.mach_id = 'Tao1'`,
}

// GroupByCorpus exercises the aggregation pipeline across global and grouped
// shapes: COUNT(*) vs COUNT(col) NULL semantics, MIN/MAX ignoring NULLs,
// stat-pushdown-eligible global aggregates (bare scans with and without
// covering/pruning predicates), grouped aggregation over every operator
// (row, vectorized hash, morsel-parallel partial merge, sharded partial
// merge), HAVING, and aggregate-only ORDER BY. SUM/AVG appear only over INT
// columns: integer accumulation is exact and order-independent, so parallel
// partial merge, zone-stat folding and cross-shard merge cannot perturb the
// cross-mode comparison (float sums are inherently accumulation-order-
// sensitive).
var GroupByCorpus = []string{
	`SELECT COUNT(*) FROM Activity`,
	`SELECT COUNT(*), MIN(mach_id), MAX(mach_id), MIN(event_time), MAX(event_time) FROM Activity`,
	`SELECT COUNT(*) FROM Activity WHERE value = 'idle'`,
	`SELECT COUNT(*), MAX(event_time) FROM Activity WHERE mach_id <> 'no-such-machine'`,
	`SELECT COUNT(*), COUNT(name), COUNT(score), SUM(id), AVG(id), MIN(id), MAX(id) FROM NullProbe`,
	`SELECT MIN(name), MAX(name), MIN(score), MAX(score) FROM NullProbe`,
	`SELECT COUNT(*) FROM NullProbe WHERE name IS NULL`,
	`SELECT COUNT(score) FROM NullProbe WHERE score IS NULL`,
	`SELECT value, COUNT(*), MIN(event_time), MAX(event_time) FROM Activity GROUP BY value ORDER BY value`,
	`SELECT mach_id, COUNT(*) FROM Activity GROUP BY mach_id ORDER BY mach_id LIMIT 10`,
	`SELECT name, COUNT(*), COUNT(score), SUM(id), AVG(id), MIN(id), MAX(id) FROM NullProbe GROUP BY name ORDER BY name`,
	`SELECT value, COUNT(*) FROM Activity WHERE mach_id LIKE 'src-%' GROUP BY value ORDER BY value`,
	`SELECT mach_id, COUNT(*) FROM Activity GROUP BY mach_id HAVING COUNT(*) > 2 ORDER BY mach_id LIMIT 5`,
	`SELECT SUM(id * 2), AVG(id + 1) FROM NullProbe`,
	`SELECT name, SUM(id + 1), MIN(id * 2) FROM NullProbe GROUP BY name ORDER BY name`,
}

// JoinCorpus exercises the hash join's columnar probe where it can go wrong:
// NULL keys on either side (never equal, not even to each other), nothing
// needed above the join (COUNT(*): the output carries no column), every
// column needed (SELECT *), a residual that alone reads a column, composite
// and BIGINT / TIMESTAMP keys, and a build or a probe side no row survives
// on.
var JoinCorpus = []string{
	`SELECT COUNT(*) FROM NullProbe n, NullProbe m WHERE n.name = m.name`,
	`SELECT n.id, m.id FROM NullProbe n, NullProbe m WHERE n.score = m.score`,
	`SELECT COUNT(*) FROM Routing R, Activity A WHERE R.neighbor = A.mach_id AND A.value = 'idle'`,
	`SELECT * FROM NullProbe n, Activity a WHERE n.name = a.value AND a.mach_id = 'Tao1'`,
	`SELECT A.* FROM Routing R, Activity A WHERE R.neighbor = A.mach_id AND R.mach_id = 'Tao1'`,
	`SELECT R.mach_id FROM Routing R, Activity A WHERE R.neighbor = A.mach_id AND R.mach_id < A.value AND A.mach_id = 'Tao2'`,
	`SELECT COUNT(*) FROM NullProbe n, NullProbe m WHERE n.name = m.name AND n.id = m.id`,
	`SELECT n.name, m.score FROM NullProbe n, NullProbe m WHERE n.id = m.id AND m.id > 2`,
	`SELECT COUNT(*) FROM Routing R, Activity A WHERE R.event_time = A.event_time AND R.mach_id = 'Tao1'`,
	`SELECT COUNT(*) FROM Routing R, Activity A WHERE R.neighbor = A.mach_id AND R.mach_id = 'no-such-machine'`,
	`SELECT A.mach_id FROM Routing R, Activity A WHERE R.neighbor = A.mach_id AND A.value = 'no-such-value'`,
}

// NullProbeStmts returns the DDL + inserts that create the NullProbe fixture
// (NULLs in every column), executable against a single engine or broadcast
// through a shard router.
func NullProbeStmts() []string {
	stmts := []string{`CREATE TABLE NullProbe (id INT, name TEXT, score FLOAT)`}
	for _, row := range []string{
		`(1, 'idle', 0.1)`,
		`(2, NULL, 0.9)`,
		`(3, 'busy', NULL)`,
		`(4, NULL, NULL)`,
		`(5, 'down', 0.5)`,
		`(6, 'idle', 0.45)`,
	} {
		stmts = append(stmts, `INSERT INTO NullProbe VALUES `+row)
	}
	return stmts
}

// RowSet renders a result as a sorted multiset of canonical row keys, the
// comparison form used by every equivalence suite: row order is not part of
// the contract unless the query has a total ORDER BY, so multiset equality is
// the strongest property that holds across execution strategies.
func RowSet(res *engine.Result) []string {
	keys := make([]string, len(res.Rows))
	for i, r := range res.Rows {
		keys[i] = exec.RowKey(r)
	}
	sort.Strings(keys)
	return keys
}

// EquivCorpus assembles the full equivalence corpus: the paper's four test
// queries, the recency query generated for each against the given catalog,
// the ad-hoc shapes, and the GROUP BY corpus. The catalog must contain the
// workload schema (and NullProbe, for the queries that reference it).
func EquivCorpus(cat *storage.Catalog) ([]string, error) {
	var corpus []string
	for _, name := range []string{"Q1", "Q2", "Q3", "Q4"} {
		sql, err := Query(name)
		if err != nil {
			return nil, err
		}
		corpus = append(corpus, sql)
		sel, err := sqlparser.ParseSelect(sql)
		if err != nil {
			return nil, fmt.Errorf("workload: %s: %w", name, err)
		}
		gen, err := recgen.Generate(sel, cat, recgen.Options{})
		if err != nil {
			return nil, fmt.Errorf("workload: recgen %s: %w", name, err)
		}
		if !gen.Empty {
			corpus = append(corpus, gen.SQL)
		}
	}
	corpus = append(corpus, AdHocCorpus...)
	corpus = append(corpus, GroupByCorpus...)
	corpus = append(corpus, JoinCorpus...)
	return corpus, nil
}
