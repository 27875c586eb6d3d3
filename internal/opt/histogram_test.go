package opt

import (
	"math"
	"math/rand"
	"testing"

	"pagefeedback/internal/expr"
	"pagefeedback/internal/tuple"
)

func intVals(n int, f func(i int) int64) []tuple.Value {
	out := make([]tuple.Value, n)
	for i := range out {
		out[i] = tuple.Int64(f(i))
	}
	return out
}

func TestHistogramUniformRange(t *testing.T) {
	h := BuildHistogram(tuple.KindInt, intVals(10000, func(i int) int64 { return int64(i) }))
	cases := []struct {
		atom expr.Atom
		want float64
	}{
		{expr.NewAtom("c", expr.Lt, tuple.Int64(1000)), 0.10},
		{expr.NewAtom("c", expr.Le, tuple.Int64(4999)), 0.50},
		{expr.NewAtom("c", expr.Ge, tuple.Int64(9000)), 0.10},
		{expr.NewAtom("c", expr.Gt, tuple.Int64(9999)), 0.00},
		{expr.NewBetween("c", tuple.Int64(2000), tuple.Int64(2999)), 0.10},
		{expr.NewAtom("c", expr.Eq, tuple.Int64(5)), 0.0001},
		{expr.NewAtom("c", expr.Ne, tuple.Int64(5)), 0.9999},
	}
	for _, c := range cases {
		got := h.EstimateAtom(c.atom)
		if math.Abs(got-c.want) > 0.02 {
			t.Errorf("%s: selectivity = %.4f, want %.4f", c.atom, got, c.want)
		}
	}
	if h.Distinct != 10000 {
		t.Errorf("Distinct = %d", h.Distinct)
	}
	if h.Min.Int != 0 || h.Max.Int != 9999 {
		t.Errorf("min/max = %v/%v", h.Min, h.Max)
	}
}

func TestHistogramSkewedEquality(t *testing.T) {
	// 90% zeros, 10% spread over 1..1000.
	h := BuildHistogram(tuple.KindInt, intVals(10000, func(i int) int64 {
		if i < 9000 {
			return 0
		}
		return int64(i - 8999)
	}))
	got := h.EstimateAtom(expr.NewAtom("c", expr.Eq, tuple.Int64(0)))
	if got < 0.5 {
		t.Errorf("Eq(0) selectivity = %.3f, want high (skew captured)", got)
	}
}

func TestHistogramStrings(t *testing.T) {
	vals := make([]tuple.Value, 0, 1000)
	for i := 0; i < 1000; i++ {
		s := "CA"
		if i%4 == 1 {
			s = "WA"
		} else if i%4 == 2 {
			s = "OR"
		} else if i%4 == 3 {
			s = "NV"
		}
		vals = append(vals, tuple.Str(s))
	}
	h := BuildHistogram(tuple.KindString, vals)
	if h.Distinct != 4 {
		t.Errorf("Distinct = %d", h.Distinct)
	}
	got := h.EstimateAtom(expr.NewAtom("state", expr.Eq, tuple.Str("CA")))
	if math.Abs(got-0.25) > 0.001 {
		t.Errorf("Eq(CA) = %.3f", got)
	}
	got = h.EstimateAtom(expr.NewIn("state", tuple.Str("CA"), tuple.Str("WA")))
	if math.Abs(got-0.5) > 0.001 {
		t.Errorf("In(CA,WA) = %.3f", got)
	}
	if h.EstimateAtom(expr.NewAtom("state", expr.Eq, tuple.Str("XX"))) != 0 {
		t.Error("missing string has nonzero selectivity")
	}
}

func TestHistogramEmpty(t *testing.T) {
	h := BuildHistogram(tuple.KindInt, nil)
	if h.EstimateAtom(expr.NewAtom("c", expr.Eq, tuple.Int64(1))) != 0 {
		t.Error("empty histogram nonzero selectivity")
	}
}

func TestHistogramDates(t *testing.T) {
	vals := make([]tuple.Value, 365)
	for i := range vals {
		vals[i] = tuple.Date(int64(13000 + i))
	}
	h := BuildHistogram(tuple.KindDate, vals)
	got := h.EstimateAtom(expr.NewBetween("d", tuple.Date(13000), tuple.Date(13030)))
	if math.Abs(got-31.0/365.0) > 0.03 {
		t.Errorf("date between = %.3f", got)
	}
}

func TestCardenasYao(t *testing.T) {
	// Basic sanity: bounded by min(n, p) and by p; Yao(n=r) = p.
	if got := CardenasPages(0, 100); got != 0 {
		t.Errorf("Cardenas(0) = %v", got)
	}
	if got := CardenasPages(50, 100); got > 50 || got < 30 {
		t.Errorf("Cardenas(50,100) = %.1f, want in (30,50]", got)
	}
	if got := YaoPages(1000, 1000, 100); got != 100 {
		t.Errorf("Yao(n=r) = %v, want all pages", got)
	}
	// For n << r, Yao ~ Cardenas.
	c, y := CardenasPages(100, 1000), YaoPages(100, 100000, 1000)
	if math.Abs(c-y)/c > 0.05 {
		t.Errorf("Cardenas %.1f vs Yao %.1f diverge for small n", c, y)
	}
	// Monotonic in n.
	prev := 0.0
	for n := 1.0; n < 10000; n *= 2 {
		v := YaoPages(n, 100000, 1000)
		if v < prev {
			t.Fatalf("Yao not monotonic at n=%v", n)
		}
		prev = v
	}
	// The independence assumption: 1% of a 74-rows/page table touches
	// ~52% of pages — the overestimate that penalizes correlated data.
	v := YaoPages(740, 74000, 1000)
	if v < 400 || v > 600 {
		t.Errorf("Yao(1%%) = %.0f pages of 1000, want ~520", v)
	}
}

func TestMackertLohmanINL(t *testing.T) {
	// Caps at table pages, and at the Yao estimate for distinct rows.
	if got := MackertLohmanINL(1e9, 100000, 1000); got != 1000 {
		t.Errorf("ML(huge) = %v", got)
	}
	small := MackertLohmanINL(10, 100000, 1000)
	if small > 10 || small <= 0 {
		t.Errorf("ML(10 rows) = %v, want <= 10 pages", small)
	}
}

// yaoProduct is YaoPages as the plain product loop: Σ log((r−m−i)/(r−i))
// term by term, the reference the closed form is held to.
func yaoProduct(n, r, p float64) float64 {
	if p <= 0 || n <= 0 || r <= 0 {
		return 0
	}
	if n >= r {
		return p
	}
	m := r / p
	logFrac := 0.0
	for i := 0.0; i < n; i++ {
		num := r - m - i
		if num <= 0 {
			return p
		}
		logFrac += math.Log(num / (r - i))
		if logFrac < -40 {
			return p
		}
	}
	return p * (1 - math.Exp(logFrac))
}

// TestYaoClosedFormMatchesProduct: past yaoLoopTerms rows YaoPages takes the
// product in closed form. Over random tables up to 10⁷ rows with at least two
// rows per page, and n up to 3·10⁶, fractional n included, it stays within
// 1e-9 relative of the product loop and never changes a rounded estimate.
// (Below two rows per page the loop itself drifts by about 1e-9: every term
// reuses r−m, rounded once, so its error is relative to m.)
func TestYaoClosedFormMatchesProduct(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	logUniform := func(lo, hi float64) float64 {
		return math.Exp(math.Log(lo) + rng.Float64()*(math.Log(hi)-math.Log(lo)))
	}
	cases := 0
	for cases < 400 {
		r := math.Round(logUniform(100, 1e7))
		p := math.Round(logUniform(1, r/2))
		n := logUniform(yaoLoopTerms+1, math.Min(r, 3e6))
		if rng.Intn(2) == 0 {
			n = math.Round(n)
		}
		if n <= yaoLoopTerms || n >= r {
			continue
		}
		cases++
		got, want := YaoPages(n, r, p), yaoProduct(n, r, p)
		if math.Abs(got-want) > 1e-9*want {
			t.Errorf("Yao(n=%v, r=%v, p=%v) = %.12g, product %.12g (rel %.2g)", n, r, p, got, want, math.Abs(got-want)/want)
		}
		if int64(got+0.5) != int64(want+0.5) {
			t.Errorf("Yao(n=%v, r=%v, p=%v) rounds to %d, product to %d", n, r, p, int64(got+0.5), int64(want+0.5))
		}
	}
	// The boundary: yaoLoopTerms+1 rows, on the paper's table shapes.
	for _, c := range [][3]float64{{65, 120000, 1200}, {65.5, 1e7, 1e5}, {3e6, 1e7, 1e5}, {99999, 100000, 1000}} {
		if got, want := YaoPages(c[0], c[1], c[2]), yaoProduct(c[0], c[1], c[2]); math.Abs(got-want) > 1e-9*want {
			t.Errorf("Yao%v = %.12g, product %.12g", c, got, want)
		}
	}
}
