package main

import (
	"io"
	"math"
	"runtime"
	"runtime/metrics"
	"sort"
	"syscall"
	"time"
)

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

const (
	allocMetric = "/gc/heap/allocs:bytes"
	heapMetric  = "/memory/classes/heap/objects:bytes"
)

func readMetric(name string) uint64 {
	s := []metrics.Sample{{Name: name}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// allocBytes is the cumulative heap allocation of the process.
func allocBytes() uint64 { return readMetric(allocMetric) }

// meter measures one pass: wall and CPU time, bytes allocated, and the
// peak heap above the baseline taken right after a forced collection.
// A sampler goroutine reads the heap every 2 ms; stop waits for it.
type meter struct {
	t0          time.Time
	cpu0        time.Duration
	alloc0      uint64
	base        uint64
	peak        uint64
	stopSampler func()
}

type sample struct {
	wall, cpu  time.Duration
	alloc      uint64
	peakHeapMB float64
}

func startMeter() *meter {
	runtime.GC()
	m := &meter{base: readMetric(heapMetric)}
	m.peak = m.base
	m.stopSampler = every(2*time.Millisecond, func() {
		if h := readMetric(heapMetric); h > m.peak {
			m.peak = h
		}
	})
	m.alloc0 = allocBytes()
	m.cpu0 = cpuTime()
	m.t0 = time.Now()
	return m
}

func (m *meter) stop() sample {
	wall := time.Since(m.t0)
	cpu := cpuTime() - m.cpu0
	alloc := allocBytes() - m.alloc0
	m.stopSampler()
	if h := readMetric(heapMetric); h > m.peak {
		m.peak = h
	}
	return sample{wall: wall, cpu: cpu, alloc: alloc, peakHeapMB: float64(m.peak-m.base) / (1 << 20)}
}

// every runs f at a fixed wall-clock cadence on its own goroutine
// until stop is called; stop returns once that goroutine has exited.
func every(d time.Duration, f func()) (stop func()) {
	quit := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		t := time.NewTicker(d)
		defer t.Stop()
		for {
			select {
			case <-quit:
				return
			case <-t.C:
				f()
			}
		}
	}()
	return func() { close(quit); <-done }
}

// percentile returns the nearest-rank p-th percentile (0 < p ≤ 100).
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	k := int(math.Ceil(p / 100 * float64(len(s))))
	if k < 1 {
		k = 1
	}
	return s[k-1]
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// stampedReader serves the input bytes to a closed-loop entry point and
// notes when each read handed over which bytes: a record is "in" at the
// time of the read that delivered the end of its line. One time stamp
// per read (64 KiB), never per record.
type stampedReader struct {
	data []byte
	off  int
	ends []int
	at   []time.Time
}

func newStampedReader(data []byte) *stampedReader {
	return &stampedReader{data: data, ends: make([]int, 0, len(data)/(32<<10)+2), at: make([]time.Time, 0, len(data)/(32<<10)+2)}
}

func (r *stampedReader) Read(p []byte) (int, error) {
	if r.off >= len(r.data) {
		if len(r.ends) == 0 || r.ends[len(r.ends)-1] != -1 {
			r.ends = append(r.ends, -1)
			r.at = append(r.at, time.Now())
		}
		return 0, io.EOF
	}
	n := copy(p, r.data[r.off:])
	r.off += n
	r.ends = append(r.ends, r.off)
	r.at = append(r.at, time.Now())
	return n, nil
}

// inAt returns when the byte offset end (exclusive) had been read; a
// negative end means the end of the feed, which the EOF read marks.
func (r *stampedReader) inAt(end int) time.Time {
	if end < 0 {
		return r.at[len(r.at)-1]
	}
	i := sort.Search(len(r.ends), func(i int) bool { return r.ends[i] < 0 || r.ends[i] >= end })
	return r.at[i]
}
