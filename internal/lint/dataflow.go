package lint

// Worklist dataflow solver over the CFG (cfg.go). Analyzers describe a
// problem as a Flow — transfer function, optional per-edge refinement, join,
// and equality — and get per-block fixpoint facts back. Forward solves
// entry→exit (pinleak's held-pin paths, membudget's charged-before-growth).
//
// Facts are opaque to the solver. A Flow's functions must treat incoming
// facts as immutable and return fresh values when they change something:
// the solver caches facts per block and compares with Equal to detect the
// fixpoint, so in-place mutation would corrupt the cache.

// Fact is an analyzer-defined dataflow fact. nil is the "unreached" fact:
// Join(nil, x) must return x and Transfer is never called with nil input
// except at the boundary block, which receives Flow.Boundary.
type Fact = any

// Flow describes one dataflow problem.
type Flow struct {
	// Transfer computes the fact after executing block b given the fact
	// before it.
	Transfer func(b *Block, in Fact) Fact
	// EdgeTransfer, when non-nil, refines a fact crossing edge e (branch
	// conditions, loop back edges). It runs on the source block's out-fact
	// and must not mutate its input.
	EdgeTransfer func(e *Edge, f Fact) Fact
	// Join merges facts arriving over multiple edges. Either argument may
	// be nil (unreached); Join(nil, x) = x.
	Join func(a, b Fact) Fact
	// Equal bounds the fixpoint iteration.
	Equal func(a, b Fact) bool
	// Boundary is the fact at Entry.
	Boundary Fact
}

// maxFlowIterations caps worklist processing as a defense against a Flow
// whose facts never stabilize; 64 passes over every block is far beyond any
// real lattice height in this codebase.
const maxFlowIterations = 64

// Forward solves a forward dataflow problem and returns the fact at the
// START of each live block (the join over incoming edges, before Transfer).
// Unreachable blocks are skipped and absent from the result.
func (g *CFG) Forward(f Flow) map[*Block]Fact {
	in := make(map[*Block]Fact)
	out := make(map[*Block]Fact)
	in[g.Entry] = f.Boundary

	work := []*Block{g.Entry}
	queued := map[*Block]bool{g.Entry: true}
	steps := 0
	limit := maxFlowIterations * (len(g.Blocks) + 1)
	for len(work) > 0 {
		if steps++; steps > limit {
			break
		}
		b := work[0]
		work = work[1:]
		queued[b] = false

		o := f.Transfer(b, in[b])
		if prev, done := out[b]; done && f.Equal(prev, o) {
			continue
		}
		out[b] = o
		for _, e := range b.Succs {
			fo := o
			if f.EdgeTransfer != nil {
				fo = f.EdgeTransfer(e, fo)
			}
			merged := f.Join(in[e.To], fo)
			if _, seen := in[e.To]; seen && f.Equal(in[e.To], merged) {
				continue
			}
			in[e.To] = merged
			if !queued[e.To] {
				queued[e.To] = true
				work = append(work, e.To)
			}
		}
	}
	return in
}
