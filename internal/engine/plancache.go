package engine

import (
	"strings"
	"sync/atomic"

	"trac/internal/lru"
)

// DefaultPlanCacheSize bounds the per-database plan cache. Monitoring
// workloads (the paper's grid consumers, R-GMA-style continuous queries)
// repeat a small set of query texts, so a few hundred entries cover the
// steady state.
const DefaultPlanCacheSize = 256

// PlanCache is a small LRU of prepared objects keyed by an opaque string
// (callers bake in the normalized SQL plus whatever configuration shapes the
// prepared value) tagged with the catalog schema version at insert time.
// A lookup under a different catalog version misses and evicts the stale
// entry, so DDL/CHECK changes invalidate every cached plan without any
// dependency tracking. Safe for concurrent use.
type PlanCache struct {
	entries      *lru.Cache[string, planEntry]
	hits, misses atomic.Uint64
}

// planEntry is one cached value.
type planEntry struct {
	version uint64
	value   any
}

// NewPlanCache returns an empty cache holding up to capacity entries
// (<= 0 selects DefaultPlanCacheSize).
func NewPlanCache(capacity int) *PlanCache {
	if capacity <= 0 {
		capacity = DefaultPlanCacheSize
	}
	return &PlanCache{entries: lru.New[string, planEntry](capacity)}
}

// Get returns the cached value for key if present AND inserted under the
// same catalog version; a version mismatch evicts the stale entry and
// reports a miss. (A fresh value another caller puts between the lookup and
// the eviction goes with it: one more miss, never a stale hit.)
func (c *PlanCache) Get(key string, version uint64) (any, bool) {
	ent, ok := c.entries.Get(key)
	if ok && ent.version != version {
		c.entries.Remove(key)
		ok = false
	}
	if !ok {
		c.misses.Add(1)
		return nil, false
	}
	c.hits.Add(1)
	return ent.value, true
}

// Put inserts (or replaces) a value under the given catalog version,
// evicting the least recently used entry when full.
func (c *PlanCache) Put(key string, version uint64, value any) {
	c.entries.Put(key, planEntry{version: version, value: value})
}

// Len returns the number of live entries.
func (c *PlanCache) Len() int { return c.entries.Len() }

// Stats returns cumulative hit/miss counts.
func (c *PlanCache) Stats() (hits, misses uint64) {
	return c.hits.Load(), c.misses.Load()
}

// NormalizeSQL collapses whitespace runs to single spaces and trims the
// ends, so cosmetically different renderings of the same query share one
// cache entry. Single-quoted string literals, a quote inside one written
// twice, are copied verbatim: collapsing inside them would merge queries that
// differ only in literal whitespace — a wrong-answer bug, not just a missed
// hit. Case is left alone for the same reason.
func NormalizeSQL(sql string) string {
	var sb strings.Builder
	sb.Grow(len(sql))
	inSpace := false
	for i := 0; i < len(sql); i++ {
		c := sql[i]
		switch {
		case c == '\'':
			if inSpace && sb.Len() > 0 {
				sb.WriteByte(' ')
			}
			inSpace = false
			// Copy the quoted literal verbatim, honoring '' escapes.
			j := i + 1
			for j < len(sql) {
				if sql[j] == '\'' {
					if j+1 < len(sql) && sql[j+1] == '\'' {
						j += 2
						continue
					}
					break
				}
				j++
			}
			if j < len(sql) {
				j++ // include the closing quote
			}
			sb.WriteString(sql[i:j])
			i = j - 1
		case c == ' ' || c == '\t' || c == '\n' || c == '\r':
			inSpace = true
		default:
			if inSpace && sb.Len() > 0 {
				sb.WriteByte(' ')
			}
			inSpace = false
			sb.WriteByte(c)
		}
	}
	return sb.String()
}
