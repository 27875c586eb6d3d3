package core

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"pagefeedback/internal/storage"
	"pagefeedback/internal/tuple"
)

func TestLinearCounterExactSmall(t *testing.T) {
	lc := NewLinearCounter(1 << 16)
	for pid := storage.PageID(0); pid < 100; pid++ {
		for rep := 0; rep < 5; rep++ { // repeats must not inflate the count
			lc.AddPID(pid)
		}
	}
	est := lc.Estimate()
	if math.Abs(est-100) > 3 {
		t.Errorf("estimate = %.1f, want ~100", est)
	}
	if lc.Observed() != 500 {
		t.Errorf("Observed = %d", lc.Observed())
	}
}

func TestLinearCounterAccuracyAtScale(t *testing.T) {
	// 50K distinct pages, 1 bit/page budget: error should stay within a
	// few percent (the paper reports high accuracy with <1 bit/page).
	const distinct = 50000
	lc := NewLinearCounter(DefaultLinearCounterBits(distinct))
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < distinct; i++ {
		pid := storage.PageID(i)
		lc.AddPID(pid)
		if rng.Intn(3) == 0 { // sprinkle repeats
			lc.AddPID(pid)
		}
	}
	est := lc.Estimate()
	relErr := math.Abs(est-distinct) / distinct
	if relErr > 0.05 {
		t.Errorf("relative error %.3f > 5%% (est %.0f)", relErr, est)
	}
}

func TestLinearCounterSaturation(t *testing.T) {
	lc := NewLinearCounter(64)
	for pid := storage.PageID(0); pid < 10000; pid++ {
		lc.AddPID(pid)
	}
	est := lc.Estimate()
	if math.IsInf(est, 0) || math.IsNaN(est) {
		t.Errorf("saturated estimate = %v", est)
	}
	if est < 64 {
		t.Errorf("saturated estimate %.1f below bitmap size", est)
	}
}

func TestLinearCounterZeroEmpty(t *testing.T) {
	lc := NewLinearCounter(1024)
	if lc.Estimate() != 0 {
		t.Errorf("empty estimate = %v", lc.Estimate())
	}
	if lc.EstimateInt() != 0 {
		t.Errorf("empty EstimateInt = %d", lc.EstimateInt())
	}
}

func TestLinearCounterZeroBitsPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("NewLinearCounter(0) did not panic")
		}
	}()
	NewLinearCounter(0)
}

func TestDefaultLinearCounterBits(t *testing.T) {
	if DefaultLinearCounterBits(10) != 1024 {
		t.Error("floor not applied")
	}
	if DefaultLinearCounterBits(5000) != 5000 {
		t.Error("1 bit/page not applied")
	}
}

func TestGroupedCounterExact(t *testing.T) {
	gc := NewGroupedCounter()
	// Pages 0..9, rows 10 per page; predicate true on pages 2, 5, 9.
	hitPages := map[storage.PageID]bool{2: true, 5: true, 9: true}
	for pid := storage.PageID(0); pid < 10; pid++ {
		for r := 0; r < 10; r++ {
			gc.Observe(pid, hitPages[pid] && r == 7) // one qualifying row
		}
	}
	if got := gc.Count(); got != 3 {
		t.Errorf("Count = %d, want 3", got)
	}
	if gc.PagesSeen() != 10 {
		t.Errorf("PagesSeen = %d", gc.PagesSeen())
	}
}

func TestGroupedCounterMultipleHitsOnePage(t *testing.T) {
	gc := NewGroupedCounter()
	gc.Observe(1, true)
	gc.Observe(1, true)
	gc.Observe(1, true)
	if got := gc.Count(); got != 1 {
		t.Errorf("Count = %d, want 1", got)
	}
}

func TestGroupedCounterObserveAfterFinishPanics(t *testing.T) {
	gc := NewGroupedCounter()
	gc.Observe(1, true)
	gc.Finish()
	defer func() {
		if recover() == nil {
			t.Error("Observe after Finish did not panic")
		}
	}()
	gc.Observe(2, true)
}

func TestGroupedCounterEmpty(t *testing.T) {
	gc := NewGroupedCounter()
	if gc.Count() != 0 {
		t.Error("empty counter nonzero")
	}
}

func TestGroupedCounterQuickMatchesNaive(t *testing.T) {
	// Property: for any sequence of (page, sat) with pages grouped, the
	// counter equals the number of pages with >=1 satisfying row.
	f := func(pageHits []uint8) bool {
		gc := NewGroupedCounter()
		want := 0
		for pid, h := range pageHits {
			rows := int(h%5) + 1
			sat := h%2 == 0
			anyHit := false
			for r := 0; r < rows; r++ {
				rowSat := sat && r == rows-1
				gc.Observe(storage.PageID(pid), rowSat)
				anyHit = anyHit || rowSat
			}
			if anyHit {
				want++
			}
		}
		return gc.Count() == int64(want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestDPSampleFullFractionIsExact(t *testing.T) {
	s := NewDPSample(1.0, 1)
	hit := map[storage.PageID]bool{3: true, 4: true, 8: true, 9: true}
	for pid := storage.PageID(0); pid < 10; pid++ {
		for r := 0; r < 20; r++ {
			if s.StartRow(pid) {
				s.Observe(hit[pid] && r == 0)
			}
		}
	}
	if got := s.Estimate(); got != 4 {
		t.Errorf("Estimate = %v, want 4", got)
	}
	if s.SampledPages() != 10 || s.PagesSeen() != 10 {
		t.Errorf("sampled=%d seen=%d", s.SampledPages(), s.PagesSeen())
	}
}

func TestDPSampleUnbiasedAndAccurate(t *testing.T) {
	// 10000 pages, 30% satisfy. At f=0.1 the estimate should land within
	// ~5% (Chernoff bounds) and the average over seeds should be unbiased.
	const pages = 10000
	const trueDPC = 3000
	var sum float64
	for seed := int64(0); seed < 10; seed++ {
		s := NewDPSample(0.1, seed)
		for pid := storage.PageID(0); pid < pages; pid++ {
			sat := int(pid)%10 < 3
			if s.StartRow(pid) {
				s.Observe(sat)
			}
		}
		est := s.Estimate()
		if math.Abs(est-trueDPC)/trueDPC > 0.10 {
			t.Errorf("seed %d: estimate %.0f off by >10%%", seed, est)
		}
		sum += est
	}
	mean := sum / 10
	if math.Abs(mean-trueDPC)/trueDPC > 0.03 {
		t.Errorf("mean estimate %.0f biased vs %d", mean, trueDPC)
	}
}

func TestDPSampleSamplesFraction(t *testing.T) {
	s := NewDPSample(0.05, 7)
	for pid := storage.PageID(0); pid < 20000; pid++ {
		if s.StartRow(pid) {
			s.Observe(false)
		}
	}
	s.Finish()
	got := float64(s.SampledPages()) / float64(s.PagesSeen())
	if math.Abs(got-0.05) > 0.01 {
		t.Errorf("sampled fraction %.3f, want ~0.05", got)
	}
}

func TestDPSampleBadFractionPanics(t *testing.T) {
	for _, f := range []float64{0, -0.5, 1.5} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewDPSample(%v) did not panic", f)
				}
			}()
			NewDPSample(f, 1)
		}()
	}
}

func TestDPSampleStartRowAfterFinishPanics(t *testing.T) {
	s := NewDPSample(0.5, 1)
	s.StartRow(1)
	s.Finish()
	defer func() {
		if recover() == nil {
			t.Error("StartRow after Finish did not panic")
		}
	}()
	s.StartRow(2)
}

func TestBitVectorNoFalseNegatives(t *testing.T) {
	bv := NewBitVectorFilter(256)
	vals := make([]tuple.Value, 200)
	for i := range vals {
		vals[i] = tuple.Int64(int64(i * 37))
		bv.Add(vals[i])
	}
	for _, v := range vals {
		if !bv.MayContain(v) {
			t.Fatalf("false negative for %v", v)
		}
	}
	if bv.Added() != 200 {
		t.Errorf("Added = %d", bv.Added())
	}
}

func TestBitVectorExactWhenWide(t *testing.T) {
	// With bits >> distinct values, false-positive rate should be tiny.
	bv := NewBitVectorFilter(1 << 16)
	for i := int64(0); i < 100; i++ {
		bv.Add(tuple.Int64(i))
	}
	fp := 0
	for i := int64(1000); i < 11000; i++ {
		if bv.MayContain(tuple.Int64(i)) {
			fp++
		}
	}
	if fp > 50 { // expect ~100/65536 * 10000 ≈ 15
		t.Errorf("%d false positives out of 10000 with wide filter", fp)
	}
}

func TestBitVectorOnlyOverestimates(t *testing.T) {
	// Property: narrow filters admit a superset of the wide filter's set.
	wide := NewBitVectorFilter(1 << 20)
	narrow := NewBitVectorFilter(128)
	for i := int64(0); i < 500; i += 5 {
		wide.Add(tuple.Int64(i))
		narrow.Add(tuple.Int64(i))
	}
	for i := int64(0); i < 500; i++ {
		if wide.MayContain(tuple.Int64(i)) && !narrow.MayContain(tuple.Int64(i)) {
			t.Fatalf("narrow filter rejected value %d the wide filter admits", i)
		}
	}
}

func TestBitVectorStrings(t *testing.T) {
	bv := NewBitVectorFilter(1024)
	bv.Add(tuple.Str("CA"))
	bv.Add(tuple.Str("WA"))
	if !bv.MayContain(tuple.Str("CA")) || !bv.MayContain(tuple.Str("WA")) {
		t.Error("string membership lost")
	}
	if bv.SetBits() == 0 || bv.SetBits() > 2 {
		t.Errorf("SetBits = %d", bv.SetBits())
	}
}

// TestBitVectorBucketIsMod: a value's bit is its value mod the width (its
// hash mod the width for a string), whether the width is a power of two,
// bucketed by mask, or not.
func TestBitVectorBucketIsMod(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	for _, w := range []uint64{64, 4096, 96, 6000} {
		for i := 0; i < 200; i++ {
			n := r.Int63() - r.Int63()
			s := tuple.Str(string(rune('a' + i%26)))
			for _, c := range []struct {
				v    tuple.Value
				want uint64
			}{{tuple.Int64(n), uint64(n) % w}, {tuple.Date(n), uint64(n) % w}, {s, HashValue(s) % w}} {
				bv := NewBitVectorFilter(w)
				bv.Add(c.v)
				if bv.SetBits() != 1 || !bv.isSet(c.want) {
					t.Fatalf("width %d: %v set bits %d, want bit %d alone", w, c.v, bv.SetBits(), c.want)
				}
			}
		}
	}
}

func TestBitVectorMinimumWidth(t *testing.T) {
	bv := NewBitVectorFilter(1)
	if bv.Bits() != 64 {
		t.Errorf("Bits = %d, want 64 minimum", bv.Bits())
	}
}

func TestHashValueIntDateAgreement(t *testing.T) {
	if HashValue(tuple.Int64(42)) != HashValue(tuple.Date(42)) {
		t.Error("int and date with equal payload hash differently")
	}
	if HashValue(tuple.Int64(1)) == HashValue(tuple.Int64(2)) {
		t.Error("distinct ints collide (astronomically unlikely)")
	}
}

func TestSampleDistinctExactWhenSampleHoldsAll(t *testing.T) {
	sd := NewSampleDistinct(10000, 5)
	for pid := storage.PageID(0); pid < 500; pid++ {
		sd.AddPID(pid)
		sd.AddPID(pid) // duplicates
	}
	// Reservoir holds the whole stream: f1 counts are exact, scale = 1.
	est := sd.EstimateGEE()
	if math.Abs(est-500) > 1 {
		t.Errorf("estimate = %.1f, want 500", est)
	}
	if sd.Observed() != 1000 || sd.SampleSize() != 1000 {
		t.Errorf("observed=%d size=%d", sd.Observed(), sd.SampleSize())
	}
}

func TestSampleDistinctReasonableUnderSampling(t *testing.T) {
	// 5000 distinct PIDs, one row each, reservoir of 500. GEE guarantees
	// ratio error at most sqrt(N/n) ≈ 3.16 — loose by design, which is
	// exactly the weakness §III-A cites when preferring probabilistic
	// counting. Here every sampled PID is unique, so GEE returns
	// n·sqrt(N/n) = sqrt(N·n) ≈ 1581, right at its bound.
	sd := NewSampleDistinct(500, 9)
	for pid := storage.PageID(0); pid < 5000; pid++ {
		sd.AddPID(pid)
	}
	est := sd.EstimateGEE()
	bound := math.Sqrt(5000.0/500.0) * 1.05 // guarantee + slack
	if est < 5000/bound || est > 5000*bound {
		t.Errorf("GEE estimate %.0f violates the sqrt(N/n) ratio guarantee", est)
	}
}

func TestSampleDistinctEmpty(t *testing.T) {
	sd := NewSampleDistinct(10, 1)
	if sd.EstimateGEE() != 0 {
		t.Error("empty estimate nonzero")
	}
}

func TestSampleDistinctBadCapacityPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("NewSampleDistinct(0) did not panic")
		}
	}()
	NewSampleDistinct(0, 1)
}
