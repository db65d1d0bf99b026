package main

import (
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"time"
)

// liveHeapMetric is the heap the last garbage collection found live.
// Unlike the bytes of all heap objects, it leaves out garbage not yet
// collected, whose amount depends on when the collector happened to run
// and would make the figure swing between runs of the same code.
// Because it only changes when a collection ends, peakLiveHeap runs the
// collector often while it samples.
const liveHeapMetric = "/gc/heap/live:bytes"

// liveHeap reads liveHeapMetric. Unlike runtime.ReadMemStats it does not
// stop the world, so sampling it every millisecond costs the measured
// program nothing it would notice.
func liveHeap() uint64 {
	s := []metrics.Sample{{Name: liveHeapMetric}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// settledHeap collects garbage and returns the live heap: the baseline
// the harness's own inputs occupy.
func settledHeap() uint64 {
	runtime.GC()
	return liveHeap()
}

// probeGOGC is the collector setting while peakLiveHeap samples: a
// collection per 5 % of heap growth, so the live heap is refreshed every
// few MiB of allocation and its sampled peak lands within that of the
// true one, run after run.
const probeGOGC = 5

// peakLiveHeap runs f with the collector at probeGOGC and returns the
// highest live heap seen while it ran. f runs untimed: the frequent
// collections slow it down.
func peakLiveHeap(f func()) uint64 {
	defer debug.SetGCPercent(debug.SetGCPercent(probeGOGC))
	runtime.GC() // start from this moment's live heap, not a stale one
	h := startMax(liveHeap)
	f()
	return h.stop()
}

// maxSampler polls a value every millisecond on its own goroutine and
// keeps the largest, until stop.
type maxSampler struct {
	quit chan struct{}
	done chan uint64
}

// startMax begins polling f.
func startMax(f func() uint64) *maxSampler {
	m := &maxSampler{quit: make(chan struct{}), done: make(chan uint64, 1)}
	go func() {
		tick := time.NewTicker(time.Millisecond)
		defer tick.Stop()
		peak := f()
		for {
			select {
			case <-m.quit:
				m.done <- max(peak, f())
				return
			case <-tick.C:
				peak = max(peak, f())
			}
		}
	}()
	return m
}

// stop ends polling and returns the largest value seen.
func (m *maxSampler) stop() uint64 {
	close(m.quit)
	return <-m.done
}

// heapMiB is the program's peak live heap in MiB: the peak seen while it
// ran minus the baseline the harness already held.
func heapMiB(peak, baseline uint64) float64 {
	if peak < baseline {
		return 0
	}
	return float64(peak-baseline) / (1 << 20)
}
