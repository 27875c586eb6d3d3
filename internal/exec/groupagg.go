package exec

import (
	"cmp"
	"fmt"
	"slices"

	"pagefeedback/internal/tuple"
)

// GroupAggOp is a hash aggregate: one (group value, aggregate) output row
// per distinct group value, emitted in ascending group order.
type GroupAggOp struct {
	ctx      *Context
	input    Operator
	groupOrd int
	fn       byte // 'c','s','m','M'
	aggOrd   int  // -1 for COUNT(*)
	schema   *tuple.Schema
	stats    OpStats

	groups valueMap[*groupState]
	chunk  []groupState // where new groups' states are cut from

	out        []tuple.Row
	pos        int
	outCharged int // result rows already charged to the memory tracker
}

// groupEntry is a group in the output sort: an INT or DATE group's key is
// copied into k, so the sort compares int64s without following st.
type groupEntry struct {
	k  int64
	st *groupState
}

type groupState struct {
	key        tuple.Value
	count, sum int64
	minV, maxV tuple.Value
	seen       bool
}

// groupChunk is how many group states one allocation holds. Chunks are
// fixed-size and never regrown, so a state never moves and the map can point
// into its chunk.
const groupChunk = 128

// groupStateMemSize approximates one groupState's footprint for the memory
// tracker (three Values plus the counters).
const groupStateMemSize = 3*valueMemSize + 24

// NewGroupAgg builds the operator. fn is one of "count","sum","min","max".
func NewGroupAgg(ctx *Context, input Operator, groupOrd int, fn string, aggOrd int, schema *tuple.Schema) (*GroupAggOp, error) {
	var code byte
	switch fn {
	case "count":
		code = 'c'
	case "sum":
		code = 's'
	case "min":
		code = 'm'
	case "max":
		code = 'M'
	default:
		return nil, fmt.Errorf("exec: unknown aggregate %q", fn)
	}
	if code != 'c' && aggOrd < 0 {
		return nil, fmt.Errorf("exec: %s requires a column", fn)
	}
	if aggOrd >= 0 && code != 'c' && input.Schema().Column(aggOrd).Kind == tuple.KindString {
		return nil, fmt.Errorf("exec: %s over a string column is not supported", fn)
	}
	return &GroupAggOp{
		ctx: ctx, input: input, groupOrd: groupOrd, fn: code, aggOrd: aggOrd,
		schema: schema, stats: OpStats{Label: "GroupAggregate(" + fn + ")"},
	}, nil
}

// Open implements Operator: drains the input and aggregates per group.
func (g *GroupAggOp) Open() error {
	if err := g.input.Open(); err != nil {
		return err
	}
	g.groups = valueMap[*groupState]{}
	err := drain(g.ctx, g.input, func(b *Batch) error {
		for _, i := range b.Sel {
			if err := g.accumulate(b.Rows[i]); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		g.input.Close() // release pins even on a failed drain
		return err
	}
	if err := g.input.Close(); err != nil {
		return err
	}
	// Ascending group order. The group column is one column, so its keys
	// are all numbers or all strings: INT and DATE groups sort as
	// (int64, state) pairs, VARCHAR groups by the state's key.
	groups := make([]groupEntry, 0, len(g.groups.ints)+len(g.groups.strs))
	for k, st := range g.groups.ints {
		groups = append(groups, groupEntry{k, st})
	}
	if len(groups) > 0 {
		slices.SortFunc(groups, func(a, b groupEntry) int { return cmp.Compare(a.k, b.k) })
	} else {
		for _, st := range g.groups.strs {
			groups = append(groups, groupEntry{st: st})
		}
		slices.SortFunc(groups, func(a, b groupEntry) int { return a.st.key.Compare(b.st.key) })
	}
	// The result rows are (group value, aggregate) pairs cut from one slab,
	// charged before it is allocated.
	if err := g.chargeOut(groups); err != nil {
		return err
	}
	vals := make([]tuple.Value, 2*len(groups))
	g.out = g.out[:0]
	for i, e := range groups {
		st := e.st
		var agg int64
		switch g.fn {
		case 'c':
			agg = st.count
		case 's':
			agg = st.sum
		case 'm':
			agg = st.minV.Int
		case 'M':
			agg = st.maxV.Int
		}
		row := tuple.Row(vals[2*i : 2*i+2 : 2*i+2])
		row[0], row[1] = st.key, tuple.Int64(agg)
		g.out = append(g.out, row)
	}
	g.pos = 0
	return nil
}

// accumulate folds one input row into its group's state. A row that starts a
// new group takes the next state of the current chunk and is charged to the
// memory tracker for the state, the map entry, and the group value's
// tuple.KeySize, so the budget a query needs does not depend on how
// the table is keyed or chunked.
func (g *GroupAggOp) accumulate(row tuple.Row) error {
	gv := row[g.groupOrd]
	st := g.groups.lookup(gv)
	if st == nil {
		if len(g.chunk) == cap(g.chunk) {
			g.chunk = make([]groupState, 0, groupChunk)
		}
		g.chunk = append(g.chunk, groupState{key: gv})
		st = &g.chunk[len(g.chunk)-1]
		if err := g.groups.store(g.ctx.Mem, groupStateMemSize+int64(tuple.KeySize(gv))+mapEntryOverhead, gv, st); err != nil {
			return err
		}
	}
	st.count++
	if g.aggOrd >= 0 {
		v := row[g.aggOrd]
		if v.Kind != tuple.KindString {
			st.sum += v.Int
		}
		if !st.seen || v.Compare(st.minV) < 0 {
			st.minV = v
		}
		if !st.seen || v.Compare(st.maxV) > 0 {
			st.maxV = v
		}
		st.seen = true
	}
	return nil
}

// chargeOut charges the memory tracker for the result rows of groups past
// the buffer's previously charged length. The buffer is rebuilt on re-open,
// so charging every row would bill each rebuild again; the budgetable
// quantity is the buffer's high-water footprint.
func (g *GroupAggOp) chargeOut(groups []groupEntry) error {
	var bytes int64
	for _, e := range groups[min(g.outCharged, len(groups)):] {
		// rowMemSize of the row: two values, the group value's string.
		bytes += 2*valueMemSize + int64(len(e.st.key.Str))
	}
	if err := g.ctx.Mem.Grow(bytes); err != nil {
		return err
	}
	g.outCharged = max(g.outCharged, len(groups))
	return nil
}

// NextBatch implements Operator: the materialized result rows are handed up
// in slices of the output buffer, at most the consumer's row cap at a time.
func (g *GroupAggOp) NextBatch(b *Batch) (int, error) {
	n := emitRows(b, g.out, &g.pos)
	g.stats.ActRows += int64(n)
	return n, nil
}

// Close implements Operator.
func (g *GroupAggOp) Close() error {
	g.out = nil
	return nil
}

// Schema implements Operator.
func (g *GroupAggOp) Schema() *tuple.Schema { return g.schema }

// Stats implements Operator.
func (g *GroupAggOp) Stats() *OpStats { return &g.stats }
