package btree

import (
	"bytes"
	"fmt"
	"math/rand"
	"sort"
	"testing"
	"time"

	"pagefeedback/internal/storage"
	"pagefeedback/internal/tuple"
)

// TestTreeModelRandomOps drives the tree with long random sequences of
// insert/lookup/scan against a map model, across several seeds and
// key distributions. This is the broad-coverage complement to the targeted
// split/bulk-load tests.
func TestTreeModelRandomOps(t *testing.T) {
	for _, cfg := range []struct {
		name   string
		seed   int64
		keyMax int64 // small max -> dense domain with many collisions
		ops    int
	}{
		{"dense", 1, 200, 4000},
		{"sparse", 2, 1 << 40, 4000},
		{"medium", 3, 5000, 6000},
	} {
		cfg := cfg
		t.Run(cfg.name, func(t *testing.T) {
			runTreeModel(t, cfg.seed, cfg.keyMax, cfg.ops)
		})
	}
}

func runTreeModel(t *testing.T, seed, keyMax int64, ops int) {
	t.Helper()
	d := storage.NewDiskManager(storage.IOModel{RandomRead: time.Millisecond, SeqRead: time.Microsecond})
	bp := storage.NewBufferPool(d, 512)
	tr, err := Create(bp)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(seed))
	model := map[int64]string{}

	for op := 0; op < ops; op++ {
		k := rng.Int63n(keyMax)
		key := tuple.EncodeKey(tuple.Int64(k))
		switch rng.Intn(10) {
		case 0, 1, 2, 3, 4: // insert
			val := fmt.Sprintf("v%d-%d", k, op)
			_, err := tr.Insert(key, []byte(val))
			if _, exists := model[k]; exists {
				if err != ErrDuplicateKey {
					t.Fatalf("op %d: duplicate insert err = %v", op, err)
				}
			} else {
				if err != nil {
					t.Fatalf("op %d: insert: %v", op, err)
				}
				model[k] = val
			}
		case 5, 6, 7, 8: // point lookup
			v, found := lookup(t, tr, key)
			want, exists := model[k]
			if found != exists || (found && string(v) != want) {
				t.Fatalf("op %d: lookup(%d) = %q,%v; model %q,%v", op, k, v, found, want, exists)
			}
		case 9: // occasional full-scan audit
			if op%500 != 0 {
				continue
			}
			auditScan(t, tr, model)
		}
	}
	auditScan(t, tr, model)
	if tr.Entries() != int64(len(model)) {
		t.Fatalf("Entries = %d, model has %d", tr.Entries(), len(model))
	}
}

// auditScan verifies a full scan returns exactly the model's keys in order.
func auditScan(t *testing.T, tr *Tree, model map[int64]string) {
	t.Helper()
	keys := make([]int64, 0, len(model))
	for k := range model {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	c, err := tr.SeekFirst()
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	i := 0
	for c.Next() {
		if i >= len(keys) {
			t.Fatalf("scan produced extra entries beyond %d", len(keys))
		}
		wantKey := tuple.EncodeKey(tuple.Int64(keys[i]))
		if !bytes.Equal(c.Key(), wantKey) {
			vals, _ := tuple.DecodeKey(c.Key())
			t.Fatalf("scan entry %d = %v, want key %d", i, vals, keys[i])
		}
		if string(c.Value()) != model[keys[i]] {
			t.Fatalf("scan entry %d value mismatch", i)
		}
		i++
	}
	if err := c.Err(); err != nil {
		t.Fatal(err)
	}
	if i != len(keys) {
		t.Fatalf("scan produced %d entries, model has %d", i, len(keys))
	}
}

// TestTreeDeepInnerSplits uses wide keys (small fanout) so random inserts
// split inner nodes several levels deep — the recursive insertIntoParent
// and growRoot paths that narrow keys rarely reach.
func TestTreeDeepInnerSplits(t *testing.T) {
	d := storage.NewDiskManager(storage.IOModel{RandomRead: time.Millisecond, SeqRead: time.Microsecond})
	bp := storage.NewBufferPool(d, 2048)
	tr, err := Create(bp)
	if err != nil {
		t.Fatal(err)
	}
	const n = 4000
	pad := make([]byte, 300) // wide keys: ~25 entries/page
	perm := rand.New(rand.NewSource(77)).Perm(n)
	mkKey := func(k int) []byte {
		return tuple.EncodeKey(tuple.Str(fmt.Sprintf("%06d-%s", k, pad)))
	}
	for _, k := range perm {
		if _, err := tr.Insert(mkKey(k), []byte{byte(k)}); err != nil {
			t.Fatalf("insert %d: %v", k, err)
		}
	}
	if tr.Height() < 3 {
		t.Fatalf("height = %d, wanted >= 3 (inner splits not exercised)", tr.Height())
	}
	// Every key present, in order, with the right value.
	c, err := tr.SeekFirst()
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	i := 0
	for c.Next() {
		if !bytes.Equal(c.Key(), mkKey(i)) {
			t.Fatalf("entry %d out of order", i)
		}
		if c.Value()[0] != byte(i) {
			t.Fatalf("entry %d value wrong", i)
		}
		i++
	}
	if i != n {
		t.Fatalf("scan found %d of %d", i, n)
	}
	// Random point lookups through 3+ levels.
	for k := 0; k < n; k += 173 {
		if _, found := lookup(t, tr, mkKey(k)); !found {
			t.Fatalf("lookup(%d): not found", k)
		}
	}
}

// TestTreeOversizedEntryRejected covers the entry-size guard.
func TestTreeOversizedEntryRejected(t *testing.T) {
	tr := newTestTree(t, 64)
	big := make([]byte, storage.PageSize/2)
	if _, err := tr.Insert(tuple.EncodeKey(tuple.Int64(1)), big); err == nil {
		t.Error("oversized insert succeeded")
	}
}

// TestTreeModelAfterBulkLoad mixes bulk loading with subsequent random
// inserts and lookups — the lifecycle of a loaded table that grows.
func TestTreeModelAfterBulkLoad(t *testing.T) {
	d := storage.NewDiskManager(storage.IOModel{RandomRead: time.Millisecond, SeqRead: time.Microsecond})
	bp := storage.NewBufferPool(d, 512)
	tr, err := Create(bp)
	if err != nil {
		t.Fatal(err)
	}
	model := map[int64]string{}
	var entries []Entry
	for k := int64(0); k < 3000; k += 3 {
		v := fmt.Sprintf("bulk%d", k)
		entries = append(entries, Entry{Key: tuple.EncodeKey(tuple.Int64(k)), Value: []byte(v)})
		model[k] = v
	}
	if _, err := tr.BulkLoad(entries, 0.9); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(17))
	for op := 0; op < 3000; op++ {
		k := rng.Int63n(3500)
		key := tuple.EncodeKey(tuple.Int64(k))
		if rng.Intn(2) == 0 {
			v := fmt.Sprintf("ins%d-%d", k, op)
			_, err := tr.Insert(key, []byte(v))
			if _, exists := model[k]; exists {
				if err != ErrDuplicateKey {
					t.Fatalf("dup insert err = %v", err)
				}
			} else if err != nil {
				t.Fatal(err)
			} else {
				model[k] = v
			}
		} else {
			v, found := lookup(t, tr, key)
			want, exists := model[k]
			if found != exists || (found && string(v) != want) {
				t.Fatalf("op %d: lookup(%d) = %q,%v; model %q,%v", op, k, v, found, want, exists)
			}
		}
	}
	auditScan(t, tr, model)
}
