package core

import (
	"pagefeedback/internal/storage"
)

// GroupedCounter computes the exact distinct page count during a scan plan,
// exploiting the grouped page access property (§III-B): a scan processes all
// rows of a page together and never returns to it, so distinct counting
// reduces to maintaining one counter and one flag.
//
// Feed it every row of the scan via Observe; call Finish (or Count, which
// implies it) once the scan ends.
type GroupedCounter struct {
	count    int64
	curPID   storage.PageID
	curHit   bool
	havePage bool
	pages    int64 // total pages seen (diagnostics)
	finished bool
}

// NewGroupedCounter returns a counter ready for a fresh scan.
func NewGroupedCounter() *GroupedCounter { return &GroupedCounter{} }

// Observe records one scanned row: the page it lives on and whether it
// satisfied the monitored predicate.
func (gc *GroupedCounter) Observe(pid storage.PageID, satisfies bool) {
	if gc.finished {
		panic("core: Observe after Finish")
	}
	if !gc.havePage || pid != gc.curPID {
		gc.closePage()
		gc.curPID = pid
		gc.curHit = false
		gc.havePage = true
		gc.pages++
	}
	if satisfies {
		gc.curHit = true
	}
}

func (gc *GroupedCounter) closePage() {
	if gc.havePage && gc.curHit {
		gc.count++
	}
}

// Finish closes the last page. Further Observe calls panic.
func (gc *GroupedCounter) Finish() {
	if !gc.finished {
		gc.closePage()
		gc.havePage = false
		gc.finished = true
	}
}

// Merge folds a sibling counter that observed a page-disjoint partition of
// the same scan into gc, finishing both. Each partition preserves the
// grouped page access property within itself and no page spans partitions,
// so the partition counts sum to exactly the serial count.
//
// dbvet:commutative — the merge sums partition totals; order is irrelevant.
func (gc *GroupedCounter) Merge(o *GroupedCounter) {
	gc.Finish()
	o.Finish()
	gc.count += o.count
	gc.pages += o.pages
}

// Count returns the exact DPC(T, p). It finishes the counter.
func (gc *GroupedCounter) Count() int64 {
	gc.Finish()
	return gc.count
}

// PagesSeen returns the number of distinct pages the scan visited.
func (gc *GroupedCounter) PagesSeen() int64 {
	n := gc.pages
	return n
}
