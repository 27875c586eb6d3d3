package metrics

import (
	"math/rand"
	"reflect"
	"strings"
	"sync"
	"testing"
)

func TestCounterBasics(t *testing.T) {
	r := NewRegistry()
	c := r.NewCounter("queries_total", "total queries")
	c.Inc()
	c.Add(4)
	c.Add(-10) // ignored: counters are monotone
	c.Add(0)
	if got := c.Value(); got != 5 {
		t.Errorf("Value = %d, want 5", got)
	}
	if c.Name() != "queries_total" {
		t.Errorf("Name = %q", c.Name())
	}
}

func TestGaugeBasics(t *testing.T) {
	r := NewRegistry()
	g := r.NewGauge("pool_pinned", "pinned frames")
	g.Set(7)
	g.Add(-3)
	if got := g.Value(); got != 4 {
		t.Errorf("Value = %d, want 4", got)
	}
	if g.Name() != "pool_pinned" {
		t.Errorf("Name = %q", g.Name())
	}
}

func TestDuplicateRegistrationPanics(t *testing.T) {
	r := NewRegistry()
	r.NewCounter("x", "")
	for _, reg := range []func(){
		func() { r.NewCounter("x", "") },
		func() { r.NewGauge("x", "") },
		func() { r.NewHistogram("x", "") },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("duplicate registration did not panic")
				}
			}()
			reg()
		}()
	}
}

func TestSnapshotStableOrder(t *testing.T) {
	r := NewRegistry()
	r.NewCounter("zeta", "")
	r.NewCounter("alpha", "")
	r.NewGauge("mid", "")
	r.NewHistogram("wall", "")
	r.NewHistogram("queue", "")
	s := r.Snapshot()
	if len(s.Counters) != 2 || s.Counters[0].Name != "alpha" || s.Counters[1].Name != "zeta" {
		t.Errorf("counters not name-sorted: %+v", s.Counters)
	}
	if len(s.Histograms) != 2 || s.Histograms[0].Name != "queue" || s.Histograms[1].Name != "wall" {
		t.Errorf("histograms not name-sorted: %+v", s.Histograms)
	}
	if len(s.Gauges) != 1 || s.Gauges[0].Name != "mid" {
		t.Errorf("gauges: %+v", s.Gauges)
	}
}

// TestBucketRoundtrip sweeps values across every octave and checks the
// defining property of the bucketing: each value falls inside its
// bucket's bounds, and bucket indexes are monotone in the value.
func TestBucketRoundtrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	values := []int64{0, -5, 1, 2, 3, 4, 5, 7, 8, 15, 16, 63, 64, 1 << 40, 1<<62 + 12345, 1<<63 - 1}
	for i := 0; i < 2000; i++ {
		values = append(values, rng.Int63())
	}
	prev := int64(-1)
	prevIdx := 0
	for _, v := range values {
		idx := bucketFor(v)
		if idx < 0 || idx >= numBuckets {
			t.Fatalf("bucketFor(%d) = %d out of range", v, idx)
		}
		lo, hi := BucketBounds(idx)
		if v > 0 && (v < lo || v > hi) {
			t.Fatalf("value %d outside bucket %d bounds [%d, %d]", v, idx, lo, hi)
		}
		if v <= 0 && idx != 0 {
			t.Fatalf("non-positive value %d in bucket %d, want 0", v, idx)
		}
		if hi > 0 && lo > 0 && float64(hi-lo) > 0.25*float64(lo) {
			t.Fatalf("bucket %d relative width %d/%d exceeds 25%%", idx, hi-lo, lo)
		}
		_ = prev
		_ = prevIdx
	}
	// Monotonicity on a sorted sweep.
	last := -1
	for v := int64(0); v < 5000; v++ {
		idx := bucketFor(v)
		if idx < last {
			t.Fatalf("bucketFor not monotone at %d: %d after %d", v, idx, last)
		}
		last = idx
	}
}

// observeAll records the same values through a func so shard- and
// atomic-path tests share inputs.
func sampleValues(n int, seed int64) []int64 {
	rng := rand.New(rand.NewSource(seed))
	out := make([]int64, n)
	for i := range out {
		// Mix magnitudes: mostly small, occasional huge.
		switch rng.Intn(4) {
		case 0:
			out[i] = rng.Int63n(16)
		case 1:
			out[i] = rng.Int63n(1 << 20)
		default:
			out[i] = rng.Int63()
		}
	}
	return out
}

// filled returns a histogram holding the given observations.
func filled(values []int64) *Histogram {
	var h Histogram
	for _, v := range values {
		h.Observe(v)
	}
	return &h
}

// merged returns a fresh histogram with each part merged into it in order.
func merged(parts ...*Histogram) *Histogram {
	var h Histogram
	for _, p := range parts {
		h.Merge(p)
	}
	return &h
}

// TestShardMergeCommutativeAssociative pins Histogram.Merge's
// dbvet:commutative contract: histograms holding shards of the
// observations merge to the same totals in any order or grouping.
func TestShardMergeCommutativeAssociative(t *testing.T) {
	a := filled(sampleValues(1000, 7))
	b := filled(sampleValues(1000, 8))
	c := filled(sampleValues(1000, 9))
	if !reflect.DeepEqual(merged(a, b).Snapshot(), merged(b, a).Snapshot()) {
		t.Error("Merge is not commutative: a+b != b+a")
	}
	if !reflect.DeepEqual(merged(merged(a, b), c).Snapshot(), merged(a, merged(b, c)).Snapshot()) {
		t.Error("Merge is not associative: (a+b)+c != a+(b+c)")
	}
}

// TestAbsorbMatchesDirectObserve checks that merging shards of the
// observations into a histogram equals observing them all directly.
func TestAbsorbMatchesDirectObserve(t *testing.T) {
	values := sampleValues(3000, 11)
	r := NewRegistry()
	direct := r.NewHistogram("direct", "")
	viaShards := r.NewHistogram("sharded", "")
	var s1, s2 Histogram
	for i, v := range values {
		direct.Observe(v)
		if i%2 == 0 {
			s1.Observe(v)
		} else {
			s2.Observe(v)
		}
	}
	viaShards.Merge(&s1)
	viaShards.Merge(&s2)
	if d, s := direct.Snapshot(), viaShards.Snapshot(); !reflect.DeepEqual(d, s) {
		t.Fatalf("snapshots differ: direct %+v sharded %+v", d, s)
	}
}

func TestQuantileAndMean(t *testing.T) {
	var empty HistSnapshot
	if empty.Quantile(0.5) != 0 || empty.Mean() != 0 {
		t.Error("empty snapshot quantile/mean not zero")
	}
	r := NewRegistry()
	h := r.NewHistogram("h", "")
	for v := int64(1); v <= 1000; v++ {
		h.Observe(v)
	}
	s := h.Snapshot()
	if got := s.Mean(); got != 500.5 {
		t.Errorf("Mean = %v, want 500.5 (sums are exact)", got)
	}
	for _, q := range []float64{0, 0.5, 0.9, 0.99, 1} {
		got := s.Quantile(q)
		exact := int64(q*1000) + 1
		if exact > 1000 {
			exact = 1000
		}
		// The quantile is an upper bound within the bucket's 25% width.
		if got < exact || float64(got) > 1.25*float64(exact)+1 {
			t.Errorf("Quantile(%v) = %d, want in [%d, %.0f]", q, got, exact, 1.25*float64(exact)+1)
		}
	}
}

// TestConcurrentWritersMergeOnRead is the registry's -race test: N
// goroutines hammer a counter, a gauge, and a histogram (both directly
// and through private histograms merged at the end) while readers
// repeatedly snapshot and render. Final totals must be exact.
func TestConcurrentWritersMergeOnRead(t *testing.T) {
	const writers, perWriter = 8, 2000
	r := NewRegistry()
	c := r.NewCounter("ops", "")
	g := r.NewGauge("depth", "")
	h := r.NewHistogram("lat", "")
	stop := make(chan struct{})
	var readers sync.WaitGroup
	for i := 0; i < 3; i++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				s := r.Snapshot()
				var sb strings.Builder
				if err := s.WritePrometheus(&sb); err != nil {
					t.Errorf("WritePrometheus: %v", err)
					return
				}
			}
		}()
	}
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			var shard Histogram
			for i := 0; i < perWriter; i++ {
				c.Inc()
				g.Add(1)
				g.Add(-1)
				if i%2 == 0 {
					h.Observe(int64(i))
				} else {
					shard.Observe(int64(i))
				}
			}
			h.Merge(&shard)
		}(w)
	}
	wg.Wait()
	close(stop)
	readers.Wait()
	if got := c.Value(); got != writers*perWriter {
		t.Errorf("counter = %d, want %d", got, writers*perWriter)
	}
	if got := g.Value(); got != 0 {
		t.Errorf("gauge = %d, want 0", got)
	}
	s := h.Snapshot()
	if s.Count != writers*perWriter {
		t.Errorf("histogram count = %d, want %d", s.Count, writers*perWriter)
	}
	wantSum := int64(writers) * int64(perWriter) * int64(perWriter-1) / 2
	if s.Sum != wantSum {
		t.Errorf("histogram sum = %d, want %d", s.Sum, wantSum)
	}
}

func TestWritePrometheusFormat(t *testing.T) {
	r := NewRegistry()
	c := r.NewCounter("queries_total", "total queries executed")
	g := r.NewGauge("queue_depth", "")
	h := r.NewHistogram("wall_us", "wall time")
	c.Add(3)
	g.Set(-2)
	h.Observe(1)
	h.Observe(5)
	h.Observe(5)
	var sb strings.Builder
	if err := r.Snapshot().WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"# HELP queries_total total queries executed",
		"# TYPE queries_total counter",
		"queries_total 3",
		"# TYPE queue_depth gauge",
		"queue_depth -2",
		"# TYPE wall_us histogram",
		"wall_us_bucket{le=\"1\"} 1",
		"wall_us_bucket{le=\"5\"} 3",
		"wall_us_bucket{le=\"+Inf\"} 3",
		"wall_us_sum 11",
		"wall_us_count 3",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
	// A gauge with no help string must not emit a HELP line.
	if strings.Contains(out, "# HELP queue_depth") {
		t.Errorf("unexpected HELP line for help-less gauge:\n%s", out)
	}
}
