package btree

import (
	"bytes"
	"fmt"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
	"time"

	"pagefeedback/internal/storage"
	"pagefeedback/internal/tuple"
)

func newTestTree(t *testing.T, poolPages int) *Tree {
	t.Helper()
	d := storage.NewDiskManager(storage.IOModel{RandomRead: 4 * time.Millisecond, SeqRead: 100 * time.Microsecond})
	bp := storage.NewBufferPool(d, poolPages)
	tr, err := Create(bp)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func intKey(v int64) []byte { return tuple.EncodeKey(tuple.Int64(v)) }

// lookup is a point read through a SeekGE cursor: it returns a copy of the
// value stored under key, or found=false.
func lookup(t *testing.T, tr *Tree, key []byte) (value []byte, found bool) {
	t.Helper()
	c, err := tr.SeekGE(key)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if c.Next() && bytes.Equal(c.Key(), key) {
		return append([]byte(nil), c.Value()...), true
	}
	if err := c.Err(); err != nil {
		t.Fatal(err)
	}
	return nil, false
}

// valueAt reads the value stored at rid through View.
func valueAt(tr *Tree, rid storage.RID) ([]byte, error) {
	var out []byte
	err := tr.View(rid, func(v []byte) error {
		out = append([]byte(nil), v...)
		return nil
	})
	return out, err
}

func TestInsertSearchSmall(t *testing.T) {
	tr := newTestTree(t, 64)
	for i := int64(0); i < 100; i++ {
		if _, err := tr.Insert(intKey(i), []byte(fmt.Sprintf("v%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	for i := int64(0); i < 100; i++ {
		v, found := lookup(t, tr, intKey(i))
		if !found || string(v) != fmt.Sprintf("v%d", i) {
			t.Fatalf("lookup(%d) = %q,%v", i, v, found)
		}
	}
	if _, found := lookup(t, tr, intKey(1000)); found {
		t.Error("found missing key")
	}
	if tr.Entries() != 100 {
		t.Errorf("Entries = %d", tr.Entries())
	}
}

func TestInsertDuplicate(t *testing.T) {
	tr := newTestTree(t, 64)
	if _, err := tr.Insert(intKey(1), []byte("a")); err != nil {
		t.Fatal(err)
	}
	if _, err := tr.Insert(intKey(1), []byte("b")); err != ErrDuplicateKey {
		t.Errorf("duplicate insert err = %v, want ErrDuplicateKey", err)
	}
}

func TestInsertManyRandomOrderSplits(t *testing.T) {
	tr := newTestTree(t, 256)
	const n = 5000
	perm := rand.New(rand.NewSource(42)).Perm(n)
	payload := make([]byte, 40)
	for _, v := range perm {
		if _, err := tr.Insert(intKey(int64(v)), payload); err != nil {
			t.Fatal(err)
		}
	}
	if tr.Height() < 2 {
		t.Errorf("height = %d, expected splits", tr.Height())
	}
	// Every key findable.
	for i := 0; i < n; i += 97 {
		if _, found := lookup(t, tr, intKey(int64(i))); !found {
			t.Fatalf("lookup(%d) not found", i)
		}
	}
	// Full scan is sorted and complete.
	c, err := tr.SeekFirst()
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	var prev []byte
	count := 0
	for c.Next() {
		if prev != nil && bytes.Compare(prev, c.Key()) >= 0 {
			t.Fatalf("scan out of order at entry %d", count)
		}
		prev = append(prev[:0], c.Key()...)
		count++
	}
	if c.Err() != nil {
		t.Fatal(c.Err())
	}
	if count != n {
		t.Errorf("scan found %d entries, want %d", count, n)
	}
}

func TestSeekGE(t *testing.T) {
	tr := newTestTree(t, 128)
	for i := int64(0); i < 1000; i += 10 {
		if _, err := tr.Insert(intKey(i), nil); err != nil {
			t.Fatal(err)
		}
	}
	cases := []struct {
		seek int64
		want int64
	}{
		{0, 0}, {1, 10}, {10, 10}, {995, -1}, {990, 990}, {-50, 0},
	}
	for _, cse := range cases {
		c, err := tr.SeekGE(intKey(cse.seek))
		if err != nil {
			t.Fatal(err)
		}
		if !c.Next() {
			if cse.want != -1 {
				t.Errorf("SeekGE(%d): exhausted, want %d", cse.seek, cse.want)
			}
			c.Close()
			continue
		}
		vals, err := tuple.DecodeKey(c.Key())
		if err != nil {
			t.Fatal(err)
		}
		if vals[0].Int != cse.want {
			t.Errorf("SeekGE(%d) = %d, want %d", cse.seek, vals[0].Int, cse.want)
		}
		c.Close()
	}
}

func TestGetByRID(t *testing.T) {
	tr := newTestTree(t, 64)
	rid, err := tr.Insert(intKey(7), []byte("row-7"))
	if err != nil {
		t.Fatal(err)
	}
	v, err := valueAt(tr, rid)
	if err != nil {
		t.Fatal(err)
	}
	if string(v) != "row-7" {
		t.Errorf("View = %q", v)
	}
	if _, err := valueAt(tr, storage.RID{Page: 0, Slot: 0}); err == nil {
		t.Error("View on meta page succeeded")
	}
}

func TestBulkLoadAndScan(t *testing.T) {
	tr := newTestTree(t, 256)
	const n = 3000
	entries := make([]Entry, n)
	for i := range entries {
		entries[i] = Entry{Key: intKey(int64(i)), Value: []byte(fmt.Sprintf("row%05d", i))}
	}
	res, err := tr.BulkLoad(entries, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.RIDs) != n {
		t.Fatalf("got %d RIDs", len(res.RIDs))
	}
	if tr.Entries() != n {
		t.Errorf("Entries = %d", tr.Entries())
	}
	// RIDs must address the right rows directly.
	for i := 0; i < n; i += 131 {
		v, err := valueAt(tr, res.RIDs[i])
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(v, entries[i].Value) {
			t.Errorf("RID %d resolves to wrong entry", i)
		}
	}
	// Seeks work through the built inner levels.
	for i := 0; i < n; i += 37 {
		v, found := lookup(t, tr, intKey(int64(i)))
		if !found || !bytes.Equal(v, entries[i].Value) {
			t.Fatalf("lookup(%d) after bulk load: found=%v", i, found)
		}
	}
	// Full scan returns everything in order.
	c, _ := tr.SeekFirst()
	defer c.Close()
	i := 0
	for c.Next() {
		if !bytes.Equal(c.Key(), entries[i].Key) {
			t.Fatalf("scan entry %d mismatch", i)
		}
		i++
	}
	if i != n {
		t.Errorf("scan found %d", i)
	}
}

func TestBulkLoadSequentialLeafLayout(t *testing.T) {
	// Leaves of a bulk-loaded tree must occupy consecutive PIDs so a full
	// scan is sequential I/O — this is what makes Table Scan cheap and the
	// clustering effects of the paper observable.
	tr := newTestTree(t, 256)
	entries := make([]Entry, 2000)
	for i := range entries {
		entries[i] = Entry{Key: intKey(int64(i)), Value: make([]byte, 64)}
	}
	if _, err := tr.BulkLoad(entries, 1.0); err != nil {
		t.Fatal(err)
	}
	c, _ := tr.SeekFirst()
	defer c.Close()
	var pids []storage.PageID
	for c.Next() {
		rid := c.RID()
		if len(pids) == 0 || pids[len(pids)-1] != rid.Page {
			pids = append(pids, rid.Page)
		}
	}
	if int64(len(pids)) != tr.LeafPages() {
		t.Errorf("scan touched %d pages, LeafPages = %d", len(pids), tr.LeafPages())
	}
	for i := 1; i < len(pids); i++ {
		if pids[i] != pids[i-1]+1 {
			t.Fatalf("leaf pages not consecutive: %d then %d", pids[i-1], pids[i])
		}
	}
}

func TestBulkLoadFillFactor(t *testing.T) {
	mk := func(ff float64) int64 {
		tr := newTestTree(t, 512)
		entries := make([]Entry, 2000)
		for i := range entries {
			entries[i] = Entry{Key: intKey(int64(i)), Value: make([]byte, 64)}
		}
		if _, err := tr.BulkLoad(entries, ff); err != nil {
			t.Fatal(err)
		}
		return tr.LeafPages()
	}
	full, half := mk(1.0), mk(0.5)
	if half < full*3/2 {
		t.Errorf("fill factor 0.5 used %d leaves vs %d at 1.0; expected ~2x", half, full)
	}
}

func TestBulkLoadRejectsUnsorted(t *testing.T) {
	tr := newTestTree(t, 64)
	entries := []Entry{{Key: intKey(2)}, {Key: intKey(1)}}
	if _, err := tr.BulkLoad(entries, 1.0); err == nil {
		t.Error("unsorted bulk load succeeded")
	}
	tr2 := newTestTree(t, 64)
	dup := []Entry{{Key: intKey(1)}, {Key: intKey(1)}}
	if _, err := tr2.BulkLoad(dup, 1.0); err == nil {
		t.Error("duplicate bulk load succeeded")
	}
}

func TestBulkLoadOnNonEmptyFails(t *testing.T) {
	tr := newTestTree(t, 64)
	tr.Insert(intKey(1), nil)
	if _, err := tr.BulkLoad([]Entry{{Key: intKey(2)}}, 1.0); err == nil {
		t.Error("BulkLoad on non-empty tree succeeded")
	}
}

func TestBulkLoadEmpty(t *testing.T) {
	tr := newTestTree(t, 64)
	if _, err := tr.BulkLoad(nil, 1.0); err != nil {
		t.Fatal(err)
	}
	c, _ := tr.SeekFirst()
	defer c.Close()
	if c.Next() {
		t.Error("empty tree scan returned an entry")
	}
}

func TestInsertAfterBulkLoad(t *testing.T) {
	tr := newTestTree(t, 256)
	entries := make([]Entry, 500)
	for i := range entries {
		entries[i] = Entry{Key: intKey(int64(i * 2)), Value: []byte("bulk")}
	}
	if _, err := tr.BulkLoad(entries, 1.0); err != nil {
		t.Fatal(err)
	}
	// Insert odd keys, including below the minimum.
	for _, k := range []int64{-5, 1, 999, 501} {
		if _, err := tr.Insert(intKey(k), []byte("ins")); err != nil {
			t.Fatalf("Insert(%d): %v", k, err)
		}
	}
	for _, k := range []int64{-5, 1, 999, 501, 0, 998} {
		if _, found := lookup(t, tr, intKey(k)); !found {
			t.Errorf("lookup(%d) after mixed load: not found", k)
		}
	}
}

func TestTreeQuickInsertScanMatchesSortedInput(t *testing.T) {
	f := func(keys []int32) bool {
		tr := newTestTree(t, 256)
		seen := map[int32]bool{}
		var uniq []int32
		for _, k := range keys {
			if !seen[k] {
				seen[k] = true
				uniq = append(uniq, k)
				if _, err := tr.Insert(intKey(int64(k)), nil); err != nil {
					return false
				}
			}
		}
		sort.Slice(uniq, func(i, j int) bool { return uniq[i] < uniq[j] })
		c, err := tr.SeekFirst()
		if err != nil {
			return false
		}
		defer c.Close()
		i := 0
		for c.Next() {
			vals, err := tuple.DecodeKey(c.Key())
			if err != nil || i >= len(uniq) || vals[0].Int != int64(uniq[i]) {
				return false
			}
			i++
		}
		return i == len(uniq) && c.Err() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestStringKeys(t *testing.T) {
	tr := newTestTree(t, 64)
	words := []string{"delta", "alpha", "echo", "bravo", "charlie"}
	for _, w := range words {
		if _, err := tr.Insert(tuple.EncodeKey(tuple.Str(w)), []byte(w)); err != nil {
			t.Fatal(err)
		}
	}
	c, _ := tr.SeekFirst()
	defer c.Close()
	var got []string
	for c.Next() {
		got = append(got, string(c.Value()))
	}
	want := []string{"alpha", "bravo", "charlie", "delta", "echo"}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v, want %v", got, want)
		}
	}
}
