package pagefeedback

import (
	"context"
	"fmt"
	"sync"
	"time"
)

// admissionGate bounds the number of queries executing concurrently inside
// one Engine. Queries beyond the limit wait in FIFO order; a waiter whose
// context expires (deadline or cancellation) gives up its place and surfaces
// a *QueryError of kind ErrKindOverload (wrapping the context error), and a
// full queue rejects new arrivals immediately. The gate exists so that an
// overloaded engine degrades by queueing and shedding — not by thrashing the
// buffer pool across dozens of interleaved scans.
type admissionGate struct {
	mu      sync.Mutex
	limit   int // max concurrently admitted; <= 0 disables the gate
	maxWait int // max queued waiters; <= 0 means unbounded
	active  int
	waiters []*admissionWaiter

	// cumulative telemetry
	admitted  int64
	rejected  int64
	timedOut  int64
	waitTime  time.Duration
	peakQueue int
}

// admissionWaiter is one queued admission request. grant is closed exactly
// once, by releaseLocked, when the waiter is popped from the queue; a waiter
// that already gave up forwards the grant to the next in line.
type admissionWaiter struct {
	grant     chan struct{}
	abandoned bool
}

func newAdmissionGate(limit, maxQueue int) *admissionGate {
	return &admissionGate{limit: limit, maxWait: maxQueue}
}

// acquire blocks until the query may run, the context expires, or the queue
// is full. It returns the time spent queued and the queue depth observed at
// arrival.
func (g *admissionGate) acquire(ctx context.Context) (queueWait time.Duration, queueDepth int, err error) {
	g.mu.Lock()
	if g.limit <= 0 {
		g.active++
		g.admitted++
		g.mu.Unlock()
		return 0, 0, nil
	}
	if g.active < g.limit && len(g.waiters) == 0 {
		g.active++
		g.admitted++
		g.mu.Unlock()
		return 0, 0, nil
	}
	if g.maxWait > 0 && len(g.waiters) >= g.maxWait {
		g.rejected++
		queueDepth = len(g.waiters)
		g.mu.Unlock()
		return 0, queueDepth, &QueryError{
			Kind: ErrKindOverload,
			Err:  fmt.Errorf("admission queue full (%d waiting, limit %d)", g.maxWait, g.limit),
		}
	}
	w := &admissionWaiter{grant: make(chan struct{})}
	g.waiters = append(g.waiters, w)
	queueDepth = len(g.waiters)
	if queueDepth > g.peakQueue {
		g.peakQueue = queueDepth
	}
	g.mu.Unlock()

	start := time.Now()
	select {
	case <-w.grant:
		// releaseLocked popped us and pre-incremented active on our behalf.
		queueWait = time.Since(start)
		g.mu.Lock()
		g.admitted++
		g.waitTime += queueWait
		g.mu.Unlock()
		return queueWait, queueDepth, nil
	case <-ctx.Done():
		queueWait = time.Since(start)
		g.mu.Lock()
		select {
		case <-w.grant:
			// Lost the race: a release granted us between ctx firing and the
			// lock. The slot is ours to give back; hand it to the next waiter.
			g.releaseLocked()
		default:
			w.abandoned = true
		}
		g.timedOut++
		g.waitTime += queueWait
		g.mu.Unlock()
		return queueWait, queueDepth, &QueryError{
			Kind: ErrKindOverload,
			Err:  fmt.Errorf("admission wait abandoned after %v: %w", queueWait.Round(time.Microsecond), ctx.Err()),
		}
	}
}

// release returns one admission slot and wakes the head waiter, if any.
func (g *admissionGate) release() {
	g.mu.Lock()
	g.releaseLocked()
	g.mu.Unlock()
}

// releaseLocked decrements active, then grants slots to queued waiters head
// first, skipping (and discarding) abandoned ones. The granted waiter's
// active slot is incremented here, before the grant channel closes, so there
// is no window where the slot is neither held nor reserved.
func (g *admissionGate) releaseLocked() {
	g.active--
	for len(g.waiters) > 0 {
		w := g.waiters[0]
		if !w.abandoned && g.active >= g.limit {
			return
		}
		g.waiters = g.waiters[1:]
		if w.abandoned {
			continue
		}
		g.active++
		close(w.grant)
	}
}

// AdmissionStats is a snapshot of the gate's counters.
type AdmissionStats struct {
	// Limit is the configured concurrency limit (0 = unlimited).
	Limit int
	// Active is the number of queries currently admitted.
	Active int
	// Queued is the number of queries currently waiting.
	Queued int
	// PeakQueued is the deepest the queue has been.
	PeakQueued int
	// Admitted counts queries that got a slot (immediately or after waiting).
	Admitted int64
	// Rejected counts queries turned away by the queue-depth bound.
	Rejected int64
	// TimedOut counts waiters whose context expired while queued.
	TimedOut int64
	// WaitTime is the cumulative time queries spent queued.
	WaitTime time.Duration
}

// liveWaitersLocked counts queued waiters that have not abandoned their
// slot (an abandoned waiter still occupies a queue entry until a grant
// passes over it). Callers hold g.mu.
func (g *admissionGate) liveWaitersLocked() int {
	live := 0
	for _, w := range g.waiters {
		if !w.abandoned {
			live++
		}
	}
	return live
}

// occupancy reports the gate's instantaneous state — admitted queries, live
// waiters, and the deepest the queue has been — backing the engine's
// pf_queries_active / pf_admission_queued / pf_admission_peak_queued
// gauges, which are refreshed at snapshot time rather than on every
// admission event.
func (g *admissionGate) occupancy() (active, queued, peakQueued int) {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.active, g.liveWaitersLocked(), g.peakQueue
}

// AdmissionStats reports the engine's admission-control counters.
func (e *Engine) AdmissionStats() AdmissionStats {
	g := e.gate
	g.mu.Lock()
	defer g.mu.Unlock()
	return AdmissionStats{
		Limit:      g.limit,
		Active:     g.active,
		Queued:     g.liveWaitersLocked(),
		PeakQueued: g.peakQueue,
		Admitted:   g.admitted,
		Rejected:   g.rejected,
		TimedOut:   g.timedOut,
		WaitTime:   g.waitTime,
	}
}
