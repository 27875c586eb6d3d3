package main

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"time"

	"pagefeedback/internal/btree"
	"pagefeedback/internal/catalog"
	"pagefeedback/internal/core"
	"pagefeedback/internal/expr"
	"pagefeedback/internal/heap"
	"pagefeedback/internal/sql"
	"pagefeedback/internal/storage"
	"pagefeedback/internal/tuple"
)

// Micro-probes time the exported functions of each leaf module on the
// workload's own tables. Each probe runs probeReps batches and reports the
// median cost per unit of work, so one descheduled batch does not move it.
const probeReps = 9

// sink keeps the compiler from discarding a probe's work.
var sink int

// perUnit times fn, which does the returned number of units of work per call,
// and returns the median nanoseconds per unit.
func perUnit(fn func() (int, error)) (float64, error) {
	var ns []float64
	for i := 0; i < probeReps; i++ {
		start := time.Now()
		n, err := fn()
		d := time.Since(start)
		if err != nil {
			return 0, err
		}
		if n > 0 {
			ns = append(ns, float64(d)/float64(n))
		}
	}
	return median(ns), nil
}

// probeRows bounds the rows a row-level probe works on (64 k at full scale).
const probeRows = 1 << 16

// probeSet is the data the probes share: decoded rows of t, encoded rows of t
// and f, and t's file and page ids.
type probeSet struct {
	b       *bed
	t, f    *catalog.Table
	tRows   []tuple.Row
	tEnc    [][]byte
	fEnc    [][]byte
	tFile   storage.FileID
	tPages  []storage.PageID
	tRIDs   []storage.RID
	rng     *rand.Rand
	colSpan int64
}

func newProbeSet(b *bed) (*probeSet, error) {
	p := &probeSet{b: b, rng: rand.New(rand.NewSource(b.seed + 3)), colSpan: int64(b.ds.Rows)}
	var ok bool
	if p.t, ok = b.eng.Catalog().Table("t"); !ok {
		return nil, fmt.Errorf("probes: no table t")
	}
	if p.f, ok = b.eng.Catalog().Table("f"); !ok {
		return nil, fmt.Errorf("probes: no table f")
	}
	it, err := p.t.ScanAll()
	if err != nil {
		return nil, err
	}
	for len(p.tRows) < probeRows && it.Next() {
		row := it.Row()
		enc, err := tuple.Encode(nil, p.t.Schema, row)
		if err != nil {
			it.Close()
			return nil, err
		}
		p.tRows, p.tEnc, p.tRIDs = append(p.tRows, row), append(p.tEnc, enc), append(p.tRIDs, it.RID())
	}
	it.Close()
	if err := it.Err(); err != nil {
		return nil, err
	}
	if it, err = p.f.ScanAll(); err != nil {
		return nil, err
	}
	for len(p.fEnc) < probeRows && it.Next() {
		enc, err := tuple.Encode(nil, p.f.Schema, it.Row())
		if err != nil {
			it.Close()
			return nil, err
		}
		p.fEnc = append(p.fEnc, enc)
	}
	it.Close()
	if err := it.Err(); err != nil {
		return nil, err
	}
	parts, err := p.t.ScanPartitions(1)
	if err != nil {
		return nil, err
	}
	for _, part := range parts {
		part.Iter.Close()
		p.tFile, p.tPages = part.File, append(p.tPages, part.Pages...)
	}
	// Probes that want resident pages must fit the smallest pool (1,024).
	if len(p.tPages) > 256 {
		p.tPages = p.tPages[:256]
	}
	return p, nil
}

// lt builds col < frac·rows.
func (p *probeSet) lt(col string, frac float64) expr.Atom {
	return expr.NewAtom(col, expr.Lt, tuple.Int64(int64(frac*float64(p.colSpan))))
}

// run executes every probe and returns its metrics.
func (p *probeSet) run() (values, error) {
	v := values{}
	for _, pr := range []struct {
		name  string
		scale float64 // 1 for ns metrics, 1e-3 for us metrics
		fn    func() (int, error)
	}{
		{"sql.parse_template_us", 1e-3, p.parseTemplate},
		{"opt.estimate_dpc_us", 1e-3, p.estimateDPC},
		{"expr.eval_batch_1_ns_per_row", 1, p.evalBatch(1)},
		{"expr.eval_batch_3_ns_per_row", 1, p.evalBatch(3)},
		{"expr.eval_raw_ns_per_row", 1, p.evalRaw},
		{"expr.first_fail_ns_per_row", 1, p.firstFail},
		{"tuple.decode_t_ns_per_row", 1, p.decode(p.t.Schema, p.tEnc)},
		{"tuple.decode_f_ns_per_row", 1, p.decode(p.f.Schema, p.fEnc)},
		{"tuple.encode_ns_per_row", 1, p.encode},
		{"catalog.scan_page_us", 1e-3, p.scanPages},
		{"catalog.scan_page_filtered_us", 1e-3, p.scanPagesFiltered},
		{"catalog.index_seek_us", 1e-3, p.indexSeek},
		{"catalog.index_next_ns", 1, p.indexNext},
		{"catalog.fetch_row_ns", 1, p.fetchRow},
		{"storage.fetch_hit_ns", 1, p.fetchHit(1)},
		{"storage.fetch_hit_contended_ns", 1, p.fetchHit(runtime.NumCPU())},
		{"core.grouped_observe_ns", 1, p.groupedObserve},
		{"core.dpsample_row_ns", 1, p.dpsampleRow},
		{"core.linear_add_ns", 1, p.linearAdd},
		{"core.bitvector_add_ns", 1, p.bitvectorAdd},
		{"core.bitvector_probe_ns", 1, p.bitvectorProbe()},
	} {
		ns, err := perUnit(pr.fn)
		if err != nil {
			return nil, fmt.Errorf("probe %s: %w", pr.name, err)
		}
		v[pr.name] = ns * pr.scale
	}
	for _, fn := range []func(values) error{p.privateTrees, p.coldPool} {
		if err := fn(v); err != nil {
			return nil, err
		}
	}
	return v, nil
}

func (p *probeSet) parseTemplate() (int, error) {
	const n = 200
	for i := 0; i < n; i++ {
		t, err := sql.ParseTemplate(p.b.eng.Catalog(), stmtRange)
		if err != nil {
			return 0, err
		}
		sink += t.NumParams
	}
	return n, nil
}

func (p *probeSet) estimateDPC() (int, error) {
	const n = 200
	o := p.b.eng.Optimizer()
	for i := 0; i < n; i++ {
		pred := expr.And(p.lt("c3", 0.01+0.09*p.rng.Float64()))
		d, err := o.EstimateDPC("t", pred)
		if err != nil {
			return 0, err
		}
		j, err := o.EstimateINLDPC("t", "c4", float64(1+p.rng.Intn(int(p.colSpan)/20)))
		if err != nil {
			return 0, err
		}
		sink += int(d + j)
	}
	return 2 * n, nil
}

// predT is a 1- or 3-atom conjunction on t's integer columns.
func (p *probeSet) predT(atoms int) (expr.Conjunction, error) {
	c := expr.And(p.lt("c5", 0.5))
	if atoms == 3 {
		c = expr.And(p.lt("c5", 0.5), p.lt("c4", 0.5), p.lt("c3", 0.5))
	}
	return c.Bind(p.t.Schema)
}

func (p *probeSet) evalBatch(atoms int) func() (int, error) {
	return func() (int, error) {
		pred, err := p.predT(atoms)
		if err != nil {
			return 0, err
		}
		c := expr.Compile(pred)
		if !c.OK() {
			return 0, fmt.Errorf("predicate %s did not compile", pred)
		}
		// The selection vector starts as the whole batch, as a scan's does.
		ident := make([]int, 1024)
		for i := range ident {
			ident[i] = i
		}
		sel := make([]int, 1024)
		for lo := 0; lo < len(p.tRows); lo += 1024 {
			hi := lo + 1024
			if hi > len(p.tRows) {
				hi = len(p.tRows)
			}
			n := copy(sel, ident[:hi-lo])
			sink += len(c.EvalBatch(p.tRows[lo:hi], sel[:n]))
		}
		return len(p.tRows), nil
	}
}

func (p *probeSet) firstFail() (int, error) {
	pred, err := p.predT(3)
	if err != nil {
		return 0, err
	}
	c := expr.Compile(pred)
	if !c.OK() {
		return 0, fmt.Errorf("predicate %s did not compile", pred)
	}
	for _, row := range p.tRows {
		sink += c.FirstFail(row)
	}
	return len(p.tRows), nil
}

func (p *probeSet) evalRaw() (int, error) {
	pred, err := expr.And(expr.NewAtom("w", expr.Lt, tuple.Int64(48)), p.lt("v", 0.5)).Bind(p.f.Schema)
	if err != nil {
		return 0, err
	}
	c := expr.CompileRaw(pred, p.f.Schema)
	if !c.OK() {
		return 0, fmt.Errorf("predicate %s has no raw form", pred)
	}
	for _, enc := range p.fEnc {
		if c.Eval(enc) {
			sink++
		}
	}
	return len(p.fEnc), nil
}

func (p *probeSet) decode(s *tuple.Schema, encs [][]byte) func() (int, error) {
	return func() (int, error) {
		var buf []tuple.Value
		for _, enc := range encs {
			var err error
			if buf, err = tuple.DecodeAppend(buf[:0], s, enc); err != nil {
				return 0, err
			}
		}
		sink += len(buf)
		return len(encs), nil
	}
}

func (p *probeSet) encode() (int, error) {
	var buf []byte
	for _, row := range p.tRows {
		var err error
		if buf, err = tuple.Encode(buf[:0], p.t.Schema, row); err != nil {
			return 0, err
		}
	}
	sink += len(buf)
	return len(p.tRows), nil
}

func (p *probeSet) scanPages() (int, error) {
	it, err := p.t.ScanAll()
	if err != nil {
		return 0, err
	}
	defer it.Close()
	var batch catalog.RowBatch
	pages := 0
	for pages < len(p.tPages) && it.NextPage(&batch) {
		pages++
		sink += batch.Len()
	}
	return pages, it.Err()
}

func (p *probeSet) scanPagesFiltered() (int, error) {
	pred, err := expr.And(expr.NewAtom("w", expr.Lt, tuple.Int64(48))).Bind(p.f.Schema)
	if err != nil {
		return 0, err
	}
	c := expr.CompileRaw(pred, p.f.Schema)
	if !c.OK() {
		return 0, fmt.Errorf("predicate %s has no raw form", pred)
	}
	it, err := p.f.ScanAll()
	if err != nil {
		return 0, err
	}
	defer it.Close()
	var batch catalog.RowBatch
	pages := 0
	for pages < len(p.tPages) {
		n, ok := it.NextPageFiltered(&batch, c.Eval)
		if !ok {
			break
		}
		pages++
		sink += n
	}
	return pages, it.Err()
}

// seekRange is a 20-entry range of ix_t_c3 at a seeded position.
func (p *probeSet) seekRange(ix *catalog.Index, width int64) (expr.KeyRange, error) {
	lo := p.rng.Int63n(p.colSpan - width)
	pred := expr.And(expr.NewBetween("c3", tuple.Int64(lo), tuple.Int64(lo+width-1)))
	ranges, _, ok := expr.IndexRanges(pred, ix.Cols)
	if !ok || len(ranges) != 1 {
		return expr.KeyRange{}, fmt.Errorf("no index range for %s", pred)
	}
	return ranges[0], nil
}

func (p *probeSet) indexSeek() (int, error) {
	ix, ok := p.t.IndexByName("ix_t_c3")
	if !ok {
		return 0, fmt.Errorf("no index ix_t_c3")
	}
	const n = 500
	for i := 0; i < n; i++ {
		r, err := p.seekRange(ix, 20)
		if err != nil {
			return 0, err
		}
		it, err := ix.SeekRange(r)
		if err != nil {
			return 0, err
		}
		if it.Next() {
			sink += int(it.RID().Slot)
		}
		err = it.Err()
		it.Close()
		if err != nil {
			return 0, err
		}
	}
	return n, nil
}

func (p *probeSet) indexNext() (int, error) {
	ix, ok := p.t.IndexByName("ix_t_c3")
	if !ok {
		return 0, fmt.Errorf("no index ix_t_c3")
	}
	width := p.colSpan / 4
	r, err := p.seekRange(ix, width)
	if err != nil {
		return 0, err
	}
	it, err := ix.SeekRange(r)
	if err != nil {
		return 0, err
	}
	defer it.Close()
	n := 0
	for it.Next() {
		n++
	}
	return n, it.Err()
}

func (p *probeSet) fetchRow() (int, error) {
	const n = 4096
	dst := make(tuple.Row, 0, p.t.Schema.NumColumns())
	for i := 0; i < n; i++ {
		row, err := p.t.FetchRowInto(dst, p.tRIDs[p.rng.Intn(len(p.tRIDs))])
		if err != nil {
			return 0, err
		}
		sink += len(row)
	}
	return n, nil
}

// touch pins one page and lets it go.
func touch(pool *storage.BufferPool, file storage.FileID, pid storage.PageID) error {
	pp, err := pool.FetchPage(file, pid)
	if err != nil {
		return err
	}
	defer pp.Unpin(false)
	sink += pp.Page.NumSlots()
	return nil
}

// fetchHit pins and unpins resident pages of t from the given number of
// goroutines; the cost is wall time per fetch.
func (p *probeSet) fetchHit(workers int) func() (int, error) {
	return func() (int, error) {
		pool := p.b.eng.Pool()
		const rounds = 40
		// The first worker to fail stops the rest.
		ctx, stop := context.WithCancel(context.Background())
		defer stop()
		errs := make([]error, workers)
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for r := 0; r < rounds && ctx.Err() == nil; r++ {
					for _, pid := range p.tPages {
						if errs[w] = touch(pool, p.tFile, pid); errs[w] != nil {
							stop()
							return
						}
					}
				}
			}(w)
		}
		wg.Wait()
		for _, err := range errs {
			if err != nil {
				return 0, err
			}
		}
		return workers * rounds * len(p.tPages), nil
	}
}

func (p *probeSet) groupedObserve() (int, error) {
	gc := core.NewGroupedCounter()
	for i, rid := range p.tRIDs {
		gc.Observe(rid.Page, i&7 == 0)
	}
	gc.Finish()
	sink += int(gc.Count())
	return len(p.tRIDs), nil
}

func (p *probeSet) dpsampleRow() (int, error) {
	s := core.NewDPSample(sampleFraction, p.b.seed)
	for i, rid := range p.tRIDs {
		if s.StartRow(rid.Page) {
			s.Observe(i&7 == 0)
		}
	}
	s.Finish()
	sink += int(s.EstimateInt())
	return len(p.tRIDs), nil
}

func (p *probeSet) linearAdd() (int, error) {
	lc := core.NewLinearCounter(core.DefaultLinearCounterBits(p.t.NumPages()))
	for _, rid := range p.tRIDs {
		lc.AddPID(rid.Page)
	}
	sink += int(lc.EstimateInt())
	return len(p.tRIDs), nil
}

// bitvectorAdd fills a filter sized as the engine sizes it, two bits per
// inner row.
func (p *probeSet) bitvectorAdd() (int, error) {
	bv := core.NewBitVectorFilter(uint64(2 * p.t.NumRows()))
	c5 := p.t.Schema.MustOrdinal("c5")
	for _, row := range p.tRows {
		bv.Add(row[c5])
	}
	sink += int(bv.SetBits())
	return len(p.tRows), nil
}

// bitvectorProbe times MayContain against a filter holding a quarter of the
// probed values.
func (p *probeSet) bitvectorProbe() func() (int, error) {
	c5 := p.t.Schema.MustOrdinal("c5")
	bv := core.NewBitVectorFilter(uint64(2 * p.t.NumRows()))
	for i, row := range p.tRows {
		if i&3 == 0 {
			bv.Add(row[c5])
		}
	}
	return func() (int, error) {
		for _, row := range p.tRows {
			if bv.MayContain(row[c5]) {
				sink++
			}
		}
		return len(p.tRows), nil
	}
}

// privateTrees probes btree and heap on structures the probe loads itself,
// in a pool of its own so the engine's pool is left alone.
func (p *probeSet) privateTrees(v values) error {
	pool := storage.NewBufferPool(storage.NewDiskManager(storage.DefaultIOModel()), 2048)
	tr, err := btree.Create(pool)
	if err != nil {
		return err
	}
	n := len(p.tRows)
	entries := make([]btree.Entry, n)
	for i := range entries {
		entries[i] = btree.Entry{Key: tuple.EncodeKey(tuple.Int64(int64(i))), Value: p.fEnc[i%len(p.fEnc)]}
	}
	if _, err := tr.BulkLoad(entries, 1.0); err != nil {
		return err
	}
	ns, err := perUnit(func() (int, error) {
		const seeks = 2000
		for i := 0; i < seeks; i++ {
			cur, err := tr.SeekGE(entries[p.rng.Intn(n)].Key)
			if err != nil {
				return 0, err
			}
			if cur.Next() {
				sink += len(cur.Key())
			}
			err = cur.Err()
			cur.Close()
			if err != nil {
				return 0, err
			}
		}
		return seeks, nil
	})
	if err != nil {
		return err
	}
	v["btree.seek_ns"] = ns
	ns, err = perUnit(func() (int, error) {
		cur, err := tr.SeekFirst()
		if err != nil {
			return 0, err
		}
		defer cur.Close()
		leaves := 0
		for cur.NextLeaf(func(key, value []byte, rid storage.RID) bool { sink += len(value); return true }) {
			leaves++
		}
		return leaves, cur.Err()
	})
	if err != nil {
		return err
	}
	v["btree.next_leaf_us"] = ns / 1e3

	hf, err := heap.Create(pool)
	if err != nil {
		return err
	}
	for _, enc := range p.tEnc[:n/4] {
		if _, err := hf.Insert(enc); err != nil {
			return err
		}
	}
	ns, err = perUnit(func() (int, error) {
		ps := hf.ScanPages()
		pages := 0
		for ps.NextPage(func(rid storage.RID, cell []byte) error { sink += len(cell); return nil }) {
			pages++
		}
		return pages, ps.Err()
	})
	if err != nil {
		return err
	}
	v["heap.scan_page_us"] = ns / 1e3
	return nil
}

// coldPool probes the miss path on the engine's own pool and disk. It runs
// last: it empties the pool.
func (p *probeSet) coldPool(v values) error {
	pool := p.b.eng.Pool()
	var resetNS, missNS []float64
	for i := 0; i < probeReps; i++ {
		start := time.Now()
		if err := pool.Reset(); err != nil {
			return err
		}
		resetNS = append(resetNS, float64(time.Since(start)))
		start = time.Now()
		for _, pid := range p.tPages {
			if err := touch(pool, p.tFile, pid); err != nil {
				return err
			}
		}
		missNS = append(missNS, float64(time.Since(start))/float64(len(p.tPages)))
	}
	v["storage.reset_us"] = median(resetNS) / 1e3
	v["storage.fetch_miss_us"] = median(missNS) / 1e3

	buf := make([]byte, storage.PageSize)
	ns, err := perUnit(func() (int, error) {
		for _, pid := range p.tPages {
			if err := pool.Disk().ReadPage(p.tFile, pid, buf); err != nil {
				return 0, err
			}
		}
		return len(p.tPages), nil
	})
	if err != nil {
		return err
	}
	v["storage.disk_read_us"] = ns / 1e3
	return nil
}
