package pagefeedback

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"pagefeedback/internal/btree"
	"pagefeedback/internal/storage"
)

// TestDiskFaultsPropagateCleanly injects read faults at varying depths and
// asserts every layer — B+tree descent, scans, fetches, joins, the whole
// engine — surfaces an error rather than panicking or returning wrong
// results.
func TestDiskFaultsPropagateCleanly(t *testing.T) {
	queries := []string{
		"SELECT COUNT(padding) FROM t WHERE c2 < 500",
		"SELECT * FROM t WHERE c1 BETWEEN 10 AND 40 ORDER BY c5",
		"SELECT c5 FROM t WHERE c5 < 50",
	}
	for _, fail := range []int64{0, 1, 5, 50} {
		eng := buildTestDB(t, 8000)
		// Force index plans sometimes so Fetch paths fail too.
		pq, _ := eng.ParseQuery(queries[0])
		eng.Optimizer().InjectDPC("t", pq.Pred, 1)

		eng.Pool().Disk().FailReadsAfter(fail)
		sawError := false
		for _, q := range queries {
			_, err := eng.Query(q, &RunOptions{MonitorAll: true})
			if err == nil {
				// A query cheap enough to finish inside the remaining read
				// budget legitimately succeeds; the invariants are "no
				// panic" and "errors are the injected fault".
				continue
			}
			sawError = true
			if !errors.Is(err, storage.ErrInjectedFault) &&
				!strings.Contains(err.Error(), "injected read fault") {
				t.Errorf("fail-after=%d: unexpected error %v", fail, err)
			}
		}
		if fail <= 5 && !sawError {
			t.Errorf("fail-after=%d: no query surfaced the injected fault", fail)
		}
		eng.Pool().Disk().FailReadsAfter(-1) // disarm
		// The engine remains usable after the device recovers.
		res, err := eng.Query(queries[0], nil)
		if err != nil {
			t.Fatalf("post-recovery query failed: %v", err)
		}
		if res.Rows[0][0].Int != 500 {
			t.Errorf("post-recovery count = %d", res.Rows[0][0].Int)
		}
	}
}

// TestNoPinLeakAfterMidDrainFault: blocking operators (hash build, sorts,
// group aggregates) drain their inputs inside Open. A row that fails to
// DECODE errors while its page is still pinned (unlike a read fault, where
// the iterator has already unpinned); if the drain doesn't release that
// pin, every later cold-cache Reset fails. The test corrupts one data page
// of a table on "disk" and checks each blocking shape recovers, serially
// and with two parallel workers, over a heap table (whose page step owns
// the pin) and a clustered one (whose cursor holds its leaf until Close).
func TestNoPinLeakAfterMidDrainFault(t *testing.T) {
	// h's rows end in a string: corrupting cell payloads turns the string's
	// length field into garbage, so Decode errors while the page is still
	// pinned by the iterator.
	buildEnv := func(clustered bool) *Engine {
		eng := New(DefaultConfig())
		h := NewSchema(
			Column{Name: "k", Kind: KindInt},
			Column{Name: "pad", Kind: KindString},
		)
		var err error
		if clustered {
			_, err = eng.CreateClusteredTable("h", h, []string{"k"})
		} else {
			_, err = eng.CreateHeapTable("h", h)
		}
		if err != nil {
			t.Fatal(err)
		}
		rows := make([]Row, 2000)
		for i := range rows {
			rows[i] = Row{Int64(int64(i)), Str(strings.Repeat("p", 60))}
		}
		if err := eng.Load("h", rows); err != nil {
			t.Fatal(err)
		}
		v := NewSchema(
			Column{Name: "k", Kind: KindInt},
			Column{Name: "val", Kind: KindInt},
		)
		if _, err := eng.CreateClusteredTable("v", v, []string{"k"}); err != nil {
			t.Fatal(err)
		}
		vrows := make([]Row, 8000)
		for i := range vrows {
			vrows[i] = Row{Int64(int64(i)), Int64(int64(i))}
		}
		if err := eng.Load("v", vrows); err != nil {
			t.Fatal(err)
		}
		if err := eng.Analyze("h", "v"); err != nil {
			t.Fatal(err)
		}
		if clustered {
			corruptLeafPayloads(t, eng, "h", 2)
			return eng
		}
		// Corrupt the cell payload region of heap page 2 of h (file 0),
		// keeping the slot directory intact so iteration reaches the cells.
		// Flush first: otherwise the pool's clean cached copy would be
		// written back over the corruption at the next cold-cache reset.
		if err := eng.Pool().Reset(); err != nil {
			t.Fatal(err)
		}
		disk := eng.Pool().Disk()
		buf := make([]byte, storage.PageSize)
		if err := disk.ReadPage(0, 2, buf); err != nil {
			t.Fatal(err)
		}
		for i := storage.PageSize - 3000; i < storage.PageSize; i++ {
			buf[i] = 0xFF
		}
		if err := disk.WritePage(0, 2, buf); err != nil {
			t.Fatal(err)
		}
		return eng
	}

	queries := []string{
		// Hash join: h (smaller) drains as the build side.
		"SELECT COUNT(pad) FROM h, v WHERE v.k = h.k",
		// Sort: corruption while draining the scan under ORDER BY.
		"SELECT k FROM h ORDER BY k DESC",
		// Group aggregate: corruption while draining.
		"SELECT k, COUNT(*) FROM h GROUP BY k",
	}
	for _, clustered := range []bool{false, true} {
		for _, opts := range []*RunOptions{nil, {Parallelism: 2}} {
			for _, q := range queries {
				name := fmt.Sprintf("clustered=%v parallel=%v %q", clustered, opts != nil, q)
				eng := buildEnv(clustered)
				if _, err := eng.Query(q, opts); err == nil {
					t.Fatalf("%s succeeded over a corrupt page", name)
				}
				if n := eng.Pool().Pinned(); n != 0 {
					t.Fatalf("%s left %d pages pinned", name, n)
				}
				// The next cold-cache query (its Reset fails if any pin
				// leaked) runs against the intact table.
				res, err := eng.Query("SELECT COUNT(*) FROM v WHERE k < 10", nil)
				if err != nil {
					t.Fatalf("%s leaked pins: %v", name, err)
				}
				if res.Rows[0][0].Int != 10 {
					t.Fatalf("post-corruption count = %d", res.Rows[0][0].Int)
				}
			}
		}
	}
}

// corruptLeafPayloads sets the string length prefix of every row on the
// leaf-th leaf of the clustered table name to garbage, leaving the keys and
// the slot directory intact, and flushes the page to disk: a scan reaches
// each cell and fails to decode it with the leaf still pinned.
func corruptLeafPayloads(t *testing.T, eng *Engine, name string, leaf int) {
	t.Helper()
	tab, ok := eng.Catalog().Table(name)
	if !ok {
		t.Fatalf("no table %s", name)
	}
	parts, err := tab.ScanPartitions(1)
	if err != nil {
		t.Fatal(err)
	}
	parts[0].Iter.Close()
	corrupt := func() {
		pp, err := eng.Pool().FetchPage(parts[0].File, parts[0].Pages[leaf])
		if err != nil {
			t.Fatal(err)
		}
		defer pp.Unpin(true)
		for s := 0; s < pp.Page.NumSlots(); s++ {
			_, value := btree.LeafEntry(pp.Page.Cell(storage.SlotID(s)))
			copy(value[8:12], []byte{0xFF, 0xFF, 0xFF, 0x7F}) // the length of pad, after k's 8 bytes
		}
	}
	corrupt()
	if err := eng.Pool().Reset(); err != nil {
		t.Fatal(err)
	}
}

// TestJoinFaultPropagation drives faults through the join operators.
func TestJoinFaultPropagation(t *testing.T) {
	eng := joinTestEnv(t, 8000)
	sql := "SELECT COUNT(padding) FROM t, u WHERE u.c1 < 100 AND u.c2 = t.c2"
	eng.Pool().Disk().FailReadsAfter(20)
	if _, err := eng.Query(sql, &RunOptions{MonitorAll: true, SampleFraction: 1.0}); err == nil {
		t.Error("join under injected faults succeeded")
	}
	eng.Pool().Disk().FailReadsAfter(-1)
	if _, err := eng.Query(sql, nil); err != nil {
		t.Fatalf("post-recovery join failed: %v", err)
	}
}
