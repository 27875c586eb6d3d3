package pagefeedback

import (
	"math"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"pagefeedback/internal/catalog"
	"pagefeedback/internal/expr"
	"pagefeedback/internal/opt"
	"pagefeedback/internal/plan"
	"pagefeedback/internal/sql"
)

// Plan cache: optimized plan templates keyed by (query shape, selectivity
// bucket), invalidated by feedback epochs.
//
// Every feedback mutation — ApplyFeedback, ImportFeedback, Analyze,
// InvalidateFeedback, explicit injections — bumps the affected table's epoch
// through the optimizer's invalidation hook, and DDL (CreateIndex, Load)
// bumps it directly. An entry snapshots the epochs of every table it touches
// BEFORE its plan is optimized, so an entry stored concurrently with a
// feedback mutation can only carry an already-stale epoch: a cached plan
// built from old statistics is never served after new feedback lands, it is
// re-optimized on next use. Constants enter the key only through the
// selectivity bucket (order of magnitude of the estimated selected
// fraction), so a template cached for a 0.1% predicate is not reused when
// the same shape selects half the table.

// defaultPlanCacheSize is the entry capacity used when Config.PlanCacheSize
// is zero.
const defaultPlanCacheSize = 256

// planCacheShards is the number of independently locked cache shards.
const planCacheShards = 8

// planEntry is one cached template. All fields are immutable after store
// except the CLOCK reference bit; the plan node in particular is shared by
// concurrent executions and must never be mutated (enforced by the dbvet
// planshare analyzer).
type planEntry struct {
	key  string
	node plan.Node     // optimized plan template
	cost time.Duration // optimizer cost snapshot, for \stats
	slot int           // position in the shard's CLOCK ring

	globalEpoch int64
	tableEpochs map[string]int64 // lowercased table -> feedback epoch
	tableVers   map[string]int64 // lowercased table -> catalog version

	ref atomic.Bool // CLOCK reference bit
}

// planCacheShard holds one lock's worth of entries with CLOCK eviction.
type planCacheShard struct {
	mu      sync.Mutex
	entries map[string]*planEntry
	ring    []*planEntry
	hand    int
}

// planCache is the sharded, bounded plan template store.
type planCache struct {
	shards   [planCacheShards]planCacheShard
	perShard int

	hits          atomic.Int64
	misses        atomic.Int64
	stale         atomic.Int64
	evictions     atomic.Int64
	fallbacks     atomic.Int64
	invalidations atomic.Int64
}

// newPlanCache sizes the cache to hold about capacity entries.
func newPlanCache(capacity int) *planCache {
	per := (capacity + planCacheShards - 1) / planCacheShards
	if per < 1 {
		per = 1
	}
	c := &planCache{perShard: per}
	for i := range c.shards {
		c.shards[i].entries = make(map[string]*planEntry)
	}
	return c
}

// shardFor hashes the key to a shard (FNV-1a).
func (c *planCache) shardFor(key string) *planCacheShard {
	h := uint32(2166136261)
	for i := 0; i < len(key); i++ {
		h ^= uint32(key[i])
		h *= 16777619
	}
	return &c.shards[h%planCacheShards]
}

// lookup returns the entry for key, marking it recently used.
func (c *planCache) lookup(key string) (*planEntry, bool) {
	s := c.shardFor(key)
	s.mu.Lock()
	ent, ok := s.entries[key]
	s.mu.Unlock()
	if ok {
		ent.ref.Store(true)
	}
	return ent, ok
}

// remove drops ent if it is still the entry stored under its key (a
// concurrent store may have replaced it).
func (c *planCache) remove(ent *planEntry) {
	s := c.shardFor(ent.key)
	s.mu.Lock()
	defer s.mu.Unlock()
	cur, ok := s.entries[ent.key]
	if !ok || cur != ent {
		return
	}
	delete(s.entries, ent.key)
	// Leave a hole in the ring; the CLOCK hand treats nil slots as free.
	s.ring[ent.slot] = nil
}

// store inserts ent, replacing any entry under the same key and evicting by
// CLOCK when the shard is full.
func (c *planCache) store(ent *planEntry) {
	s := c.shardFor(ent.key)
	s.mu.Lock()
	defer s.mu.Unlock()
	if old, ok := s.entries[ent.key]; ok {
		ent.slot = old.slot
		s.ring[old.slot] = ent
		s.entries[ent.key] = ent
		return
	}
	// Fill a hole or grow up to capacity.
	for i, e := range s.ring {
		if e == nil {
			ent.slot = i
			s.ring[i] = ent
			s.entries[ent.key] = ent
			return
		}
	}
	if len(s.ring) < c.perShard {
		ent.slot = len(s.ring)
		s.ring = append(s.ring, ent)
		s.entries[ent.key] = ent
		return
	}
	// CLOCK eviction: sweep the hand, clearing reference bits, until an
	// unreferenced victim turns up. Bounded: after one full sweep every bit
	// is clear.
	for {
		victim := s.ring[s.hand]
		if victim.ref.CompareAndSwap(true, false) {
			s.hand = (s.hand + 1) % len(s.ring)
			continue
		}
		delete(s.entries, victim.key)
		ent.slot = s.hand
		s.ring[s.hand] = ent
		s.entries[ent.key] = ent
		s.hand = (s.hand + 1) % len(s.ring)
		c.evictions.Add(1)
		return
	}
}

// entryCount sums the live entries across shards.
func (c *planCache) entryCount() int {
	n := 0
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		n += len(s.entries)
		s.mu.Unlock()
	}
	return n
}

// PlanCacheStats is a snapshot of the plan cache's counters.
type PlanCacheStats struct {
	// Hits is the number of queries served from a cached template.
	Hits int64
	// Misses is the number of queries that ran the full optimizer.
	Misses int64
	// Stale counts lookups that found an entry invalidated by a feedback
	// epoch or table-version change; the entry was dropped and re-optimized.
	Stale int64
	// Evictions counts entries displaced by CLOCK capacity eviction.
	Evictions int64
	// Fallbacks counts valid entries whose template could not be
	// instantiated for the new constants (treated as misses, not stored).
	Fallbacks int64
	// Invalidations counts feedback-epoch bumps (per-table or global).
	Invalidations int64
	// Entries is the current number of cached templates.
	Entries int
}

// PlanCacheStats returns the cache counters; the zero value when the cache
// is disabled.
func (e *Engine) PlanCacheStats() PlanCacheStats {
	if e.plans == nil {
		return PlanCacheStats{}
	}
	return PlanCacheStats{
		Hits:          e.plans.hits.Load(),
		Misses:        e.plans.misses.Load(),
		Stale:         e.plans.stale.Load(),
		Evictions:     e.plans.evictions.Load(),
		Fallbacks:     e.plans.fallbacks.Load(),
		Invalidations: e.plans.invalidations.Load(),
		Entries:       e.plans.entryCount(),
	}
}

// bumpPlanEpoch invalidates cached plans that touch table ("" = all): the
// path DDL takes directly and the optimizer's invalidation hook takes for
// feedback mutations.
func (e *Engine) bumpPlanEpoch(table string) {
	if e.plans != nil {
		e.plans.invalidations.Add(1)
	}
	if table == "" {
		e.epochs.BumpAll()
	} else {
		e.epochs.Bump(table)
	}
}

// --- keys and validity --------------------------------------------------

// selBucket renders the order of magnitude of the predicate's estimated
// selected fraction. Two instances of one template share a cached plan only
// within a bucket: access-path choice is driven by selectivity, so a plan
// optimized for frac=1e-3 must not serve frac=0.5.
func (e *Engine) selBucket(table string, pred expr.Conjunction) string {
	if len(pred.Atoms) == 0 {
		return "all"
	}
	ts, ok := e.opt.TableStats(table)
	if !ok || ts.Rows == 0 {
		return "u"
	}
	// The analytic selectivity (histogram product, no feedback probes) is
	// deliberate: it is cheap enough for the per-execution hot path, and it
	// keeps a template's bucket stable as feedback accrues — learned page
	// counts change the cached plan through epoch invalidation, not by
	// silently migrating queries between buckets.
	frac := ts.Selectivity(pred)
	if frac <= 0 {
		return "-9"
	}
	b := int(math.Floor(math.Log10(frac)))
	if b < -9 {
		b = -9
	}
	if b > 0 {
		b = 0
	}
	return strconv.Itoa(b)
}

// planKey is the cache key: structural query shape plus the selectivity
// bucket of each predicate.
func (e *Engine) planKey(q *opt.Query) string {
	shape := q.TemplateKey
	if shape == "" {
		shape = sql.QueryKey(q)
	}
	key := shape + "#" + e.selBucket(q.Table, q.Pred)
	if q.IsJoin() {
		key += "#" + e.selBucket(q.Table2, q.Pred2)
	}
	return key
}

// epochSnapshot records the feedback epochs and catalog versions of every
// table the query touches. Callers snapshot BEFORE optimizing: feedback
// landing between the snapshot and the store leaves the entry with an old
// epoch, so it validates as stale and is never served.
func (e *Engine) epochSnapshot(q *opt.Query) (epochs, vers map[string]int64, global int64) {
	epochs = make(map[string]int64, 2)
	vers = make(map[string]int64, 2)
	add := func(t string) {
		lt := strings.ToLower(t)
		epochs[lt] = e.epochs.Table(t)
		vers[lt] = e.tableVersion(t)
	}
	add(q.Table)
	if q.IsJoin() {
		add(q.Table2)
	}
	return epochs, vers, e.epochs.Global()
}

// entryValid reports whether ent was optimized against the current feedback
// state and table contents.
func (e *Engine) entryValid(ent *planEntry) bool {
	if ent.globalEpoch != e.epochs.Global() {
		return false
	}
	for t, v := range ent.tableEpochs {
		if e.epochs.Table(t) != v {
			return false
		}
	}
	for t, v := range ent.tableVers {
		if e.tableVersion(t) != v {
			return false
		}
	}
	return true
}

// planForQuery resolves a plan for q: from the cache when a valid template
// exists (instantiated with q's constants, no optimizer call), otherwise by
// optimizing and storing the result as a new template. hit reports which.
func (e *Engine) planForQuery(q *opt.Query) (node plan.Node, hit bool, err error) {
	if e.plans == nil {
		node, err = e.PlanQuery(q)
		return node, false, err
	}
	key := e.planKey(q)
	if ent, ok := e.plans.lookup(key); ok {
		if !e.entryValid(ent) {
			e.plans.remove(ent)
			e.plans.stale.Add(1)
		} else if inst, ok := e.instantiatePlan(ent.node, q); ok {
			e.plans.hits.Add(1)
			return inst, true, nil
		} else {
			e.plans.fallbacks.Add(1)
		}
	}
	e.plans.misses.Add(1)
	epochs, vers, global := e.epochSnapshot(q)
	node, err = e.PlanQuery(q)
	if err != nil {
		return nil, false, err
	}
	e.plans.store(&planEntry{
		key: key, node: node, cost: node.Est().Cost,
		globalEpoch: global, tableEpochs: epochs, tableVers: vers,
	})
	return node, false, nil
}

// --- template instantiation ---------------------------------------------

// instantiatePlan rebuilds the template plan with q's predicate constants:
// fresh nodes, rebound predicates, recomputed index ranges — no optimizer
// call and no mutation of the shared template. Returns ok=false on any
// mismatch (the caller falls back to a full optimize).
func (e *Engine) instantiatePlan(tmpl plan.Node, q *opt.Query) (plan.Node, bool) {
	predFor := func(tab *catalog.Table) expr.Conjunction {
		if strings.EqualFold(tab.Name, q.Table) {
			return q.Pred
		}
		return q.Pred2
	}
	var walk func(n plan.Node) (plan.Node, bool)
	walk = func(n plan.Node) (plan.Node, bool) {
		switch t := n.(type) {
		case *plan.Scan:
			pred := predFor(t.Tab)
			bound, err := pred.Bind(t.Tab.Schema)
			if err != nil {
				return nil, false
			}
			var clusterRange *expr.KeyRange
			if t.ClusterRange != nil {
				ranges, _, ok := expr.IndexRanges(pred, t.Tab.ClusterCols)
				if !ok || len(ranges) != 1 {
					return nil, false
				}
				clusterRange = &ranges[0]
			}
			return &plan.Scan{Tab: t.Tab, Pred: bound, Estm: t.Estm, ClusterRange: clusterRange}, true
		case *plan.CoveringScan:
			pred := predFor(t.Tab)
			bound, err := pred.Bind(t.Schem)
			if err != nil {
				return nil, false
			}
			return &plan.CoveringScan{
				Tab: t.Tab, Index: t.Index, Pred: bound, Schem: t.Schem, Estm: t.Estm,
			}, true
		case *plan.Seek:
			pred := predFor(t.Tab)
			ranges, _, ok := expr.IndexRanges(pred, t.Index.Cols)
			if !ok {
				return nil, false
			}
			bound, err := pred.Bind(t.Tab.Schema)
			if err != nil {
				return nil, false
			}
			return &plan.Seek{
				Tab: t.Tab, Index: t.Index, Ranges: ranges, Pred: bound, Estm: t.Estm,
			}, true
		case *plan.Intersect:
			pred := predFor(t.Tab)
			ra, _, okA := expr.IndexRanges(pred, t.IndexA.Cols)
			rb, _, okB := expr.IndexRanges(pred, t.IndexB.Cols)
			if !okA || !okB {
				return nil, false
			}
			bound, err := pred.Bind(t.Tab.Schema)
			if err != nil {
				return nil, false
			}
			return &plan.Intersect{
				Tab: t.Tab, IndexA: t.IndexA, RangesA: ra,
				IndexB: t.IndexB, RangesB: rb, Pred: bound, Estm: t.Estm,
			}, true
		case *plan.Join:
			outer, ok := walk(t.Outer)
			if !ok {
				return nil, false
			}
			if t.Method == plan.INLJoin {
				bound, err := predFor(t.InnerTab).Bind(t.InnerTab.Schema)
				if err != nil {
					return nil, false
				}
				return &plan.Join{
					Method: t.Method, Outer: outer,
					OuterCol: t.OuterCol, InnerCol: t.InnerCol,
					SortOuter: t.SortOuter, SortInner: t.SortInner,
					Schem: t.Schem, Estm: t.Estm,
					InnerTab: t.InnerTab, InnerIndex: t.InnerIndex, InnerPred: bound,
				}, true
			}
			inner, ok := walk(t.Inner)
			if !ok {
				return nil, false
			}
			return &plan.Join{
				Method: t.Method, Outer: outer, Inner: inner,
				OuterCol: t.OuterCol, InnerCol: t.InnerCol,
				SortOuter: t.SortOuter, SortInner: t.SortInner,
				Schem: t.Schem, Estm: t.Estm,
			}, true
		case *plan.Sort:
			in, ok := walk(t.Input)
			if !ok {
				return nil, false
			}
			return &plan.Sort{Input: in, Cols: t.Cols, Desc: t.Desc, Estm: t.Estm}, true
		case *plan.Project:
			in, ok := walk(t.Input)
			if !ok {
				return nil, false
			}
			return &plan.Project{Input: in, Cols: t.Cols, Schem: t.Schem, Estm: t.Estm}, true
		case *plan.Limit:
			in, ok := walk(t.Input)
			if !ok {
				return nil, false
			}
			return &plan.Limit{Input: in, N: t.N, Estm: t.Estm}, true
		case *plan.Agg:
			in, ok := walk(t.Input)
			if !ok {
				return nil, false
			}
			return &plan.Agg{Input: in, Func: t.Func, Col: t.Col, Schem: t.Schem, Estm: t.Estm}, true
		case *plan.GroupAgg:
			in, ok := walk(t.Input)
			if !ok {
				return nil, false
			}
			return &plan.GroupAgg{
				Input: in, GroupCol: t.GroupCol, Func: t.Func, AggCol: t.AggCol,
				Schem: t.Schem, Estm: t.Estm,
			}, true
		default:
			return nil, false
		}
	}
	return walk(tmpl)
}
