package main

import (
	"fmt"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

var workloadNames = []string{"batch", "follow", "distributed-paced"}

// workload is one way of feeding the input through an entry point.
type workload interface {
	// prepare builds the untimed reference output and everything the
	// timed passes need that is not the program's own work.
	prepare(in *input) error
	// setup measures once how long the entry point takes from being
	// invoked until it has accepted its first record.
	setup() (time.Duration, error)
	// pass runs the whole input through the entry point once, checks
	// the output against the reference and measures it.
	pass() (*passOut, error)
	// traced runs the traced measurement after the untraced passes,
	// adds its per-layer metrics to layer and returns the spans.
	traced(untraced []*passOut, layer map[string]float64) (*tracer, error)
}

// tracedPasses is how many traced passes a traced run makes; the one
// with the median wall time gives the ledger, so a single slow pass
// does not decide the tracing overhead.
const tracedPasses = 3

// medianTraced runs pass tracedPasses times, each with a fresh tracer,
// and returns the median pass by wall time with its spans.
func medianTraced(pass func(tr *tracer) (*passOut, error)) (*tracer, *passOut, error) {
	type run struct {
		tr  *tracer
		out *passOut
	}
	runs := make([]run, 0, tracedPasses)
	for i := 0; i < tracedPasses; i++ {
		tr := newTracer()
		out, err := pass(tr)
		if err != nil {
			return nil, nil, err
		}
		runs = append(runs, run{tr, out})
	}
	sort.Slice(runs, func(i, j int) bool { return runs[i].out.wall < runs[j].out.wall })
	m := runs[len(runs)/2]
	return m.tr, m.out, nil
}

// passOut is one measured pass.
type passOut struct {
	sample
	records int64
	// failed counts records dropped, late, lost or undecodable.
	failed int64
	// latencies holds one value per reference alert, in ms: from the
	// due time of the record that made its interval sealable until the
	// alert left the entry point.
	latencies []float64
	// lags holds the open-loop generator's lateness per write, in ms.
	lags []float64
	// counters are layer counts the pass observed (agent batches, …).
	counters map[string]float64
}

func newWorkload(name string, sp *spec) (workload, error) {
	switch name {
	case "batch":
		return &batchWorkload{sp: sp}, nil
	case "follow":
		return &followWorkload{sp: sp}, nil
	case "distributed-paced":
		return &pacedWorkload{sp: sp}, nil
	}
	return nil, fmt.Errorf("unknown --workload %q (want one of %v)", name, workloadNames)
}

// setupRuns times reps set-up runs, after a collection so no
// background mark work from the preparation or the previous pass lands
// inside these microsecond-scale runs.
func setupRuns(w workload, reps int) ([]float64, error) {
	runtime.GC()
	xs := make([]float64, 0, reps)
	for i := 0; i < reps; i++ {
		d, err := w.setup()
		if err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		xs = append(xs, d.Seconds())
	}
	return xs, nil
}

// measurePasses runs passes until the measured time is used up (at
// least one) and fails the run on any lost record. Before each pass it
// makes setupReps set-up runs, so the set-up median samples the whole
// run rather than one moment of it.
func measurePasses(w workload, seconds, setupReps int) (outs []*passOut, setups []float64, err error) {
	var attempted, failed int64
	start := time.Now()
	for len(outs) == 0 || time.Since(start) < time.Duration(seconds)*time.Second {
		xs, err := setupRuns(w, setupReps)
		if err != nil {
			return nil, nil, err
		}
		setups = append(setups, xs...)
		out, err := w.pass()
		if err != nil {
			return nil, nil, err
		}
		fmt.Printf("pass %d wall_ms=%.1f cpu_ms=%.1f alloc_mb=%.1f peak_heap_mb=%.1f records=%d failed=%d setup_median_s=%.6f latency_p50_ms=%.3f latency_p99_ms=%.3f\n",
			len(outs)+1, ms(out.wall), ms(out.cpu), float64(out.alloc)/(1<<20), out.peakHeapMB, out.records, out.failed, median(xs),
			percentile(out.latencies, 50), percentile(out.latencies, 99))
		outs = append(outs, out)
		attempted += out.records
		failed += out.failed
	}
	if failed > 0 {
		return nil, nil, &checkFailure{msg: fmt.Sprintf("%d of %d records failed", failed, attempted), attempted: attempted, failed: failed}
	}
	return outs, setups, nil
}

func totals(outs []*passOut) (attempted, failed int64) {
	for _, o := range outs {
		attempted += o.records
		failed += o.failed
	}
	return attempted, failed
}

// perPass returns the median over passes of f.
func perPass(outs []*passOut, f func(o *passOut) float64) float64 {
	xs := make([]float64, len(outs))
	for i, o := range outs {
		xs[i] = f(o)
	}
	return median(xs)
}

func pooled(outs []*passOut, f func(o *passOut) []float64) []float64 {
	var xs []float64
	for _, o := range outs {
		xs = append(xs, f(o)...)
	}
	return xs
}

func runEndToEnd(sp *spec, w workload, seconds int) (result, error) {
	outs, setups, err := measurePasses(w, seconds, sp.SetupRepsPerPass)
	if err != nil {
		return result{}, err
	}
	fmt.Printf("passes %d, %d alert latency samples per pass, %d set-up runs\n", len(outs), len(outs[0].latencies), len(setups))
	vals := map[string]float64{
		"records_per_s":          perPass(outs, func(o *passOut) float64 { return float64(o.records) / o.wall.Seconds() }),
		"cpu_ns_per_record":      perPass(outs, func(o *passOut) float64 { return float64(o.cpu.Nanoseconds()) / float64(o.records) }),
		"alloc_bytes_per_record": perPass(outs, func(o *passOut) float64 { return float64(o.alloc) / float64(o.records) }),
		"peak_heap_mb":           perPass(outs, func(o *passOut) float64 { return o.peakHeapMB }),
		"setup_s":                median(setups),
		// Per pass, then the median over passes, so one pass caught in a
		// host stall does not set the run's tail.
		"alert_latency_p50_ms": perPass(outs, func(o *passOut) float64 { return percentile(o.latencies, 50) }),
		"alert_latency_p99_ms": perPass(outs, func(o *passOut) float64 { return percentile(o.latencies, 99) }),
	}
	attempted, failed := totals(outs)
	return result{Correct: true, Attempted: attempted, Failed: failed, Metrics: withUnits(sp, vals)}, nil
}

// runTraced runs the untraced passes (for the overhead baseline and
// the failure and latency shares), then the workload's traced
// measurement, prints the per-layer ledger and writes the spans.
func runTraced(sp *spec, w workload, seconds int, name string, seed int64) (result, error) {
	outs, _, err := measurePasses(w, seconds, 0)
	if err != nil {
		return result{}, err
	}
	attempted, failed := totals(outs)
	lat := pooled(outs, func(o *passOut) []float64 { return o.latencies })
	over := 0
	for _, l := range lat {
		if l > sp.Paced.AlertLimitMS {
			over++
		}
	}
	lags := pooled(outs, func(o *passOut) []float64 { return o.lags })
	layer := map[string]float64{
		"failed_share":            float64(failed) / float64(attempted),
		"alerts_over_limit_share": float64(over) / float64(max(len(lat), 1)),
		"generator_lag_p99_ms":    0,
	}
	if len(lags) > 0 {
		layer["generator_lag_p99_ms"] = percentile(lags, 99)
	}
	for k, v := range outs[0].counters {
		layer[k] = v
	}
	tr, err := w.traced(outs, layer)
	if err != nil {
		return result{}, err
	}
	// Every layer metric a workload does not touch reads 0.
	for n, doc := range sp.Metrics {
		if _, ok := layer[n]; !ok && doc.Kind == "per_layer" {
			layer[n] = 0
		}
	}
	path := filepath.Join(workDir, "spans", fmt.Sprintf("%s-seed%d.jsonl", name, seed))
	if err := tr.write(path); err != nil {
		return result{}, fmt.Errorf("write spans: %w", err)
	}
	fmt.Printf("spans %d written to %s\n", len(tr.spans), path)
	return result{Correct: true, Attempted: attempted, Failed: failed, Metrics: withUnits(sp, layer)}, nil
}

// ledger prints one traced run's wall time split into each layer's
// self time plus the residual no layer span covers (the root span's
// own time), and records the split as per-layer metrics.
func ledger(tr *tracer, root int, baseline time.Duration, layer map[string]float64) {
	st := tr.selfTimes()
	layers, ns := layerSelf(st)
	wall := time.Duration(tr.spans[root].End - tr.spans[root].Start)
	overhead := wall.Seconds()/baseline.Seconds() - 1
	fmt.Printf("ledger traced_wall_ms=%.3f untraced_wall_ms=%.3f tracing_overhead=%.4f\n",
		ms(wall), ms(baseline), overhead)
	var covered int64
	for _, l := range layers {
		if l == "run" {
			continue
		}
		covered += ns[l]
		fmt.Printf("ledger layer %-8s self_ms=%10.3f share=%.4f\n", l, float64(ns[l])/1e6, float64(ns[l])/float64(wall))
		layer[l+".self_ms"] = float64(ns[l]) / 1e6
	}
	residual := ns["run"]
	fmt.Printf("ledger residual self_ms=%10.3f share=%.4f (layers+residual=%.3f ms)\n",
		float64(residual)/1e6, float64(residual)/float64(wall), float64(covered+residual)/1e6)
	names := make([]string, 0, len(st))
	for n := range st {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		s := st[n]
		fmt.Printf("ledger span %-24s count=%-6d self_ms=%10.3f self_alloc_mb=%.3f\n", n, s.count, float64(s.ns)/1e6, float64(s.alloc)/(1<<20))
	}
	layer["run.residual_ms"] = float64(residual) / 1e6
	layer["run.traced_wall_ms"] = ms(wall)
	layer["run.tracing_overhead"] = overhead
}

// sharedLayers records the layer metrics every workload's traced pass
// measures: decode cost per record and the final cause attribution.
func sharedLayers(st func(name string) self, records float64, layer map[string]float64) {
	layer["traceio.decode_ns_per_record"] = float64(st("traceio.decode").ns) / records
	layer["traceio.decode_alloc_bytes_per_record"] = float64(st("traceio.decode").alloc) / records
	layer["cause.attribute_ms"] = float64(st("cause.attribute").ns) / 1e6
}

func medianWall(outs []*passOut) time.Duration {
	return time.Duration(perPass(outs, func(o *passOut) float64 { return float64(o.wall) }))
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

func withUnits(sp *spec, vals map[string]float64) map[string]metricValue {
	out := make(map[string]metricValue, len(vals))
	for n, v := range vals {
		out[n] = metricValue{Value: v, Unit: sp.Metrics[n].Unit}
	}
	return out
}
