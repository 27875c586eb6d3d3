package pagefeedback

import (
	"bytes"
	"strings"
	"testing"
)

// FuzzImportFeedback drives ImportFeedback with arbitrary bytes. Whatever
// the input — truncated JSON, hostile numbers, duplicate keys, version skew
// — the importer must never panic, and a rejected dump must leave the
// engine exactly as it was (empty cache, no injections): import is all or
// nothing. An accepted dump's export is a fixed point: importing it into a
// fresh engine and exporting again reproduces the same bytes.
func FuzzImportFeedback(f *testing.F) {
	f.Add(`{"version":1,"entries":[{"table":"t","atoms":[{"col":"c2","op":"<","val":{"kind":"int","int":5}}],"dpc":3,"cardinality":10}]}`)
	f.Add(`{"version":1,"entries":[{"table":"t","atoms":[{"col":"c2","op":"BETWEEN","val":{"kind":"int","int":1},"val2":{"kind":"int","int":9}}],"dpc":2}]}`)
	f.Add(`{"version":2}`)
	f.Add(`{"version":1,"entries":[{"table":"","atoms":[]}]}`)
	f.Add(`{"version":1,"entries":[{"table":"t","atoms":[{"col":"c2","op":"<","val":{"kind":"int","int":5}}],"dpc":-1}]}`)
	f.Add(`{"version":1,"histograms":[{"table":"t","column":"c2","observations":[{"Lo":9,"Hi":1,"Rows":5,"DPC":2}]}]}`)
	f.Add(`{"version":1,"joinCurves":[{"table":"t","joinCol":"c2","points":[{"Rows":-4,"DPC":1}]}]}`)
	f.Add(`not json at all`)
	f.Add(`{"version":1,"entries":[{"table":"t","atoms":[{"col":"c2","op":"IN","val":{"kind":"int"},"list":[{"kind":"str","str":"x"},{"kind":"date","int":9}]}],"dpc":1}]}`)
	f.Add(`{"version":1,"histograms":[{"table":"t","column":"c2","observations":[{"Lo":1,"Hi":9,"Rows":5,"DPC":2}]},{"table":"T","column":"C2","observations":[{"Lo":3,"Hi":4,"Rows":2,"DPC":1}]}]}`)
	f.Add(`{"version":1,"joinCurves":[{"table":"t","joinCol":"c2","points":[{"Rows":4,"DPC":1}]},{"table":"T","joinCol":"C2","points":[{"Rows":8,"DPC":2}]}]}`)
	f.Add(`{"version":1,"histograms":[{"table":"t","column":"c2","observations":[{"Lo":1,"Hi":9,"Rows":0,"DPC":2}]}],"joinCurves":[{"table":"u","joinCol":"fk","points":[{"Rows":4,"DPC":0}]}]}`)

	f.Fuzz(func(t *testing.T, dump string) {
		eng := New(Config{PoolPages: 64})
		n, err := eng.ImportFeedback(strings.NewReader(dump))
		if err != nil {
			// Rejected: nothing may have been applied.
			if n != 0 {
				t.Fatalf("failed import reported %d entries", n)
			}
			if got := eng.FeedbackCache().Len(); got != 0 {
				t.Fatalf("failed import stored %d cache entries", got)
			}
			return
		}
		if n != eng.FeedbackCache().Len() {
			t.Fatalf("import reported %d entries, cache holds %d", n, eng.FeedbackCache().Len())
		}
		var x, y bytes.Buffer
		if err := eng.ExportFeedback(&x); err != nil {
			t.Fatal(err)
		}
		fresh := New(Config{PoolPages: 64})
		if _, err := fresh.ImportFeedback(bytes.NewReader(x.Bytes())); err != nil {
			t.Fatalf("re-import of an export failed: %v\n%s", err, x.String())
		}
		if err := fresh.ExportFeedback(&y); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(x.Bytes(), y.Bytes()) {
			t.Fatalf("export is not a fixed point:\nfirst:\n%s\nagain:\n%s", x.String(), y.String())
		}
	})
}
