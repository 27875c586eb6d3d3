package main

import "time"

// The machines this runs on are shared: their speed moves by a third for
// seconds to minutes at a time, for every process on them. A wall-clock
// number is therefore reported at a reference machine speed: a fixed kernel
// that depends on nothing in this repository is timed right before and after
// every measured interval, and the interval's times are divided by how much
// slower than calibNominal the kernel ran. A change to the engine moves the
// calibrated number exactly as it moves the raw one; a neighbour moves it
// much less.
//
// The kernel mixes what the engine's time goes to: streaming over memory the
// size of a table and allocating and filling row-sized objects (a third of
// its time each), and integer compute (the rest). The memory parts are what
// a neighbour slows most, here as in the scans; a compute-heavy kernel
// under-corrected them.

// calibNominal is the kernel's time on the build machine when it is quiet;
// it only fixes the scale of the calibrated numbers.
const calibNominal = 21 * time.Millisecond

var (
	calibStream = make([]uint64, 2<<20) // 16 MB, about t's pages
	calibSink   uint64
	calibKeep   [][]uint64
)

// calibKernel runs the kernel once and returns its wall time.
func calibKernel() time.Duration {
	start := time.Now()
	var s uint64
	for pass := 0; pass < 8; pass++ {
		for i := range calibStream {
			s += calibStream[i]
		}
	}
	calibKeep = calibKeep[:0]
	for i := 0; i < 90000; i++ {
		row := make([]uint64, 30) // a decoded 6-column row's worth of bytes
		for j := range row {
			row[j] = s + uint64(i)
		}
		if i&63 == 0 {
			calibKeep = append(calibKeep, row)
		}
	}
	x := s | 1
	for i := 0; i < 4500000; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
	}
	calibSink += x
	return time.Since(start)
}

// calibReps kernel runs make one reading of the machine's speed.
const calibReps = 3

// calibCost is about what one reading takes on a quiet machine; timed slices
// are shortened by two of them so a run still measures for --seconds.
const calibCost = calibReps * calibNominal

// machineFactor times the kernel calibReps times and returns the median
// against the nominal: 1 on a quiet build machine, above 1 when the machine
// is slow.
func machineFactor() float64 {
	var ts []float64
	for i := 0; i < calibReps; i++ {
		ts = append(ts, float64(calibKernel()))
	}
	return median(ts) / float64(calibNominal)
}
