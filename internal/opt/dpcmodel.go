package opt

import "math"

// The analytical distinct-page-count models today's optimizers use ([10],
// [6], [18]). Both assume qualifying rows are scattered uniformly at random
// across the table's pages — i.e., independence between the predicate column
// and the on-disk clustering order. When the column correlates with the
// clustering key (data loaded by date, for example), the true count can be
// smaller by orders of magnitude, which is precisely the estimation error
// the paper's execution feedback corrects.

// CardenasPages is Cardenas' formula: the expected number of distinct pages
// touched when n rows are drawn uniformly (with replacement across rows)
// from a table of p pages:
//
//	E[pages] = p × (1 − (1 − 1/p)^n)
func CardenasPages(n, p float64) float64 {
	if p <= 0 || n <= 0 {
		return 0
	}
	return p * (1 - math.Pow(1-1/p, n))
}

// YaoPages is Yao's refinement for sampling n distinct rows without
// replacement from r rows on p pages (r/p rows per page):
//
//	E[pages] = p × (1 − C(r−r/p, n) / C(r, n))
//
// computed in log space to avoid overflow. It converges to Cardenas for
// n ≪ r and is the form used in System R-era cost models.
//
// The log of the ratio is a sum of k = ⌈n⌉ terms. Up to yaoLoopTerms of them
// are summed directly; beyond that the sum is taken in closed form, as
// differences of lnΓ (yaoLogRatio), so every estimate costs O(1).
func YaoPages(n, r, p float64) float64 {
	if p <= 0 || n <= 0 || r <= 0 {
		return 0
	}
	if n >= r {
		return p
	}
	m := r / p // rows per page
	k := math.Ceil(n)
	// log C(r-m, n) - log C(r, n) = Σ_{i=0}^{k-1} log((r-m-i)/(r-i))
	if r-m-(k-1) <= 0 {
		return p // some factor is zero: every page certainly touched
	}
	var logFrac float64
	if k <= yaoLoopTerms {
		for i := 0.0; i < n; i++ {
			logFrac += math.Log((r - m - i) / (r - i))
		}
	} else {
		logFrac = yaoLogRatio(k, r, m)
	}
	if logFrac < -40 { // e^-40 ~ 0: all pages touched
		return p
	}
	return p * (1 - math.Exp(logFrac))
}

// yaoLoopTerms is the most terms of Yao's product YaoPages sums one by one.
const yaoLoopTerms = 64

// yaoLogRatio returns Σ_{i=0}^{k-1} log((r-m-i)/(r-i)) for r-m-(k-1) > 0 in
// closed form. With Σ_{i<k} log(x-i) = lnΓ(x+1) − lnΓ(x+1−k) the sum is
// g(r+1−k) − g(r+1), where g(z) = lnΓ(z) − lnΓ(z−m). Both g terms are about
// m·ln z and nearly cancel, so they are never formed: g(z) − m·ln z is
// computed from Stirling's series with the large logarithms folded into
// log1p, and the m·ln z parts combine into one log1p of their own. Plain
// math.Lgamma differences are not accurate enough: at r = 10⁷ they subtract
// values near 10⁸ to get results near 10⁻⁴.
func yaoLogRatio(k, r, m float64) float64 {
	z1, z2 := r+1, r+1-k
	return yaoG(z2, m) - yaoG(z1, m) + m*math.Log1p(-k/z1)
}

// yaoG returns lnΓ(z) − lnΓ(z−m) − m·ln z for z−m > 0. Small arguments are
// shifted up by the recurrence lnΓ(x+1) = lnΓ(x) + ln x until Stirling's
// series is accurate to double precision.
func yaoG(z, m float64) float64 {
	const minArg = 16
	shift := 0.0
	var corr float64
	for ; z-m+shift < minArg; shift++ {
		// lnΓ(z) − lnΓ(z−m) = [same at z+1] − ln(z/(z−m))
		corr -= math.Log1p(m / (z - m + shift))
	}
	zs := z + shift
	// (zs−½)·ln zs − (zs−m−½)·ln(zs−m) − m, less m·ln zs, with
	// ln(zs−m) = ln zs + log1p(−m/zs); then the series remainders.
	g := -(zs-m-0.5)*math.Log1p(-m/zs) - m + stirlingTail(zs) - stirlingTail(zs-m)
	// Back from zs to z: m·ln zs − m·ln z = m·log1p(shift/z).
	return g + corr + m*math.Log1p(shift/z)
}

// stirlingTail is lnΓ(z) − [(z−½)·ln z − z + ½·ln 2π], the remainder of
// Stirling's series, to double precision for z ≥ 16.
func stirlingTail(z float64) float64 {
	z2 := z * z
	return (1.0/12 - (1.0/360-(1.0/1260-(1.0/1680-1.0/(1188*z2))/z2)/z2)/z2) / z
}

// MackertLohmanINL estimates the distinct inner pages fetched by an index
// nested loops join performing k probes that touch n matching inner rows in
// total, against an inner table of r rows on p pages, following the
// validated model of Mackert & Lohman [10]: the page count is the Yao/
// Cardenas estimate for the n distinct matching rows (an LRU buffer at
// least that large makes re-fetches logical, not physical).
func MackertLohmanINL(n, r, p float64) float64 {
	return YaoPages(math.Min(n, r), r, p)
}
