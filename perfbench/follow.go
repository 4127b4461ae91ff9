package main

import (
	"bytes"
	"fmt"
	"io"
	"runtime"
	"time"

	"transientbd/internal/cause"
	"transientbd/internal/core"
	"transientbd/internal/simnet"
	"transientbd/internal/stream"
	"transientbd/internal/trace"
	"transientbd/internal/traceio"
)

func onlineOptions(sp *spec) core.OnlineOptions {
	iv := simnet.Duration(sp.IntervalMS) * simnet.Millisecond
	return core.OnlineOptions{
		Options:         core.Options{Interval: iv},
		WindowIntervals: int(sp.WindowS * 1000 / sp.IntervalMS),
	}
}

// alertLog is what an alert consumer saw: every alert in arrival order
// and when it arrived.
type alertLog struct {
	alerts []stream.Alert
	at     []time.Time
}

// drain consumes ch until it closes, then closes done.
func (l *alertLog) drain(ch <-chan stream.Alert, done chan<- struct{}) {
	defer close(done)
	for a := range ch {
		l.alerts = append(l.alerts, a)
		l.at = append(l.at, time.Now())
	}
}

// congestedAt returns the arrival time of each congested alert — the
// ones the CLI prints — in stream order.
func (l *alertLog) congestedAt() []time.Time {
	var out []time.Time
	for i, a := range l.alerts {
		if a.State == core.StateCongested {
			out = append(out, l.at[i])
		}
	}
	return out
}

// followResult is one run of the follow entry point.
type followResult struct {
	log        alertLog
	snap       *stream.Snapshot
	verdicts   []cause.Verdict
	queueFills []float64 // sampled shard queue fill, traced runs only
}

// runFollow is `tbdetect -follow`: the sharded stream runtime fed by
// strict streaming ingest, alerts drained by one consumer, then the
// final snapshot and its cause verdicts. With sampleQueues, a goroutine
// samples each shard's queue depth every millisecond.
func runFollow(sp *spec, r io.Reader, shards int, tr *tracer, root int, sampleQueues bool) (*followResult, error) {
	nw := tr.begin("stream.new", root)
	rt, err := stream.New(followConfig(sp, shards))
	tr.end(nw)
	if err != nil {
		return nil, err
	}
	res := &followResult{}
	drained := make(chan struct{})
	go res.log.drain(rt.Alerts(), drained)
	var stopSampler func()
	if sampleQueues {
		stopSampler = sampleQueueFill(rt, &res.queueFills)
	}
	dec := tr.begin("traceio.decode", root)
	_, err = traceio.StreamVisitsOpts(r, traceio.StreamOptions{Policy: traceio.Strict}, func(batch []trace.Visit) error {
		ob := tr.begin("stream.observe", dec)
		defer tr.end(ob)
		for i := range batch {
			if err := rt.Observe(batch[i]); err != nil {
				return err
			}
		}
		return nil
	})
	tr.end(dec)
	if stopSampler != nil {
		stopSampler()
	}
	if err != nil {
		rt.Close()
		<-drained
		return nil, err
	}
	cl := tr.begin("stream.close", root)
	res.snap = rt.Close()
	tr.end(cl)
	<-drained
	ca := tr.begin("cause.attribute", root)
	res.verdicts = onlineVerdicts(res.snap)
	tr.end(ca)
	return res, nil
}

// followConfig is the runtime configuration `tbdetect -follow` builds
// from its default flags.
func followConfig(sp *spec, shards int) stream.Config {
	return stream.Config{
		Online:   onlineOptions(sp),
		Shards:   shards,
		FlushLag: simnet.Duration(sp.FlushLagMS) * simnet.Millisecond,
	}
}

// queueCapacity is stream.Config's default QueueDepth, which the follow
// mode keeps.
const queueCapacity = 8192

// sampleQueueFill samples the runtime's shard queues (queued records
// over capacity) every millisecond until the returned stop is called.
func sampleQueueFill(rt *stream.Runtime, into *[]float64) (stop func()) {
	return every(time.Millisecond, func() {
		for _, h := range rt.ShardHealth() {
			*into = append(*into, float64(h.Queued)/queueCapacity)
		}
	})
}

// lostRecords counts what a stream runtime accepted but did not apply.
func lostRecords(m stream.Metrics) int64 { return m.Dropped + m.Late + m.RecordsLost }

// followWorkload runs the follow entry point at full speed with the
// spec's shard count and checks it against a one-shard reference run
// (follow output is shard-count invariant).
type followWorkload struct {
	sp  *spec
	in  *input
	ref string
	// seals holds, per congested reference alert, the byte offset just
	// past the record that made its interval sealable (-1: end of feed).
	seals []int
}

// followReference runs the untimed one-shard follow pass that both the
// follow and the distributed workloads check against.
func followReference(sp *spec, in *input) (*followResult, string, error) {
	res, err := runFollow(sp, bytes.NewReader(in.data), 1, nil, -1, false)
	if err != nil {
		return nil, "", err
	}
	if got := res.snap.Metrics.Ingested; got != int64(len(in.departs)) {
		return nil, "", fmt.Errorf("follow reference ingested %d records, the input holds %d", got, len(in.departs))
	}
	return res, followDigest(res.log.alerts, res.snap, res.verdicts), nil
}

// congestedSeals returns, per congested alert in stream order, the
// departure time the feed must reach before its interval is sealable.
func congestedSeals(sp *spec, alerts []stream.Alert) []int64 {
	iv := sp.IntervalMS * 1000
	lag := sp.FlushLagMS * 1000
	var out []int64
	for _, a := range alerts {
		if a.State == core.StateCongested {
			out = append(out, int64(a.At)+iv+lag)
		}
	}
	return out
}

func (f *followWorkload) prepare(in *input) error {
	f.in = in
	ref, digest, err := followReference(f.sp, in)
	if err != nil {
		return err
	}
	f.ref = digest
	for _, t := range congestedSeals(f.sp, ref.log.alerts) {
		f.seals = append(f.seals, in.sealOffset(t))
	}
	return nil
}

func (f *followWorkload) setup() (time.Duration, error) {
	first := f.in.data[:f.in.ends[0]]
	start := time.Now()
	rt, err := stream.New(followConfig(f.sp, f.sp.Shards))
	if err != nil {
		return 0, err
	}
	drained := make(chan struct{})
	var log alertLog
	go log.drain(rt.Alerts(), drained)
	var took time.Duration
	_, err = traceio.StreamVisitsOpts(bytes.NewReader(first), traceio.StreamOptions{Policy: traceio.Strict}, func(batch []trace.Visit) error {
		err := rt.Observe(batch[0])
		took = time.Since(start)
		return err
	})
	rt.Close()
	<-drained
	return took, err
}

func (f *followWorkload) pass() (*passOut, error) {
	return f.measure(nil, f.sp.Shards, false)
}

func (f *followWorkload) measure(tr *tracer, shards int, sampleQueues bool) (*passOut, error) {
	rd := newStampedReader(f.in.data)
	m := startMeter()
	root := tr.begin("run", -1)
	res, err := runFollow(f.sp, rd, shards, tr, root, sampleQueues)
	tr.end(root)
	s := m.stop()
	if err != nil {
		return nil, err
	}
	out := &passOut{sample: s, records: int64(len(f.in.departs))}
	out.failed = out.records - res.snap.Metrics.Ingested + lostRecords(res.snap.Metrics)
	if got := followDigest(res.log.alerts, res.snap, res.verdicts); got != f.ref {
		return nil, &checkFailure{msg: fmt.Sprintf("follow output with %d shards differs from the one-shard reference", shards), attempted: out.records, failed: out.failed}
	}
	at := res.log.congestedAt()
	out.latencies = make([]float64, len(at))
	for i, t := range at {
		out.latencies[i] = ms(t.Sub(rd.inAt(f.seals[i])))
	}
	m2 := res.snap.Metrics
	out.counters = map[string]float64{
		"stream.reestimates":     float64(m2.Reestimates),
		"stream.late_records":    float64(m2.Late),
		"stream.dropped_records": float64(m2.Dropped),
	}
	if sampleQueues {
		out.counters["stream.queue_fill_p50"] = percentile(res.queueFills, 50)
		out.counters["stream.queue_fill_max"] = percentile(res.queueFills, 100)
	}
	return out, nil
}

func (f *followWorkload) traced(untraced []*passOut, layer map[string]float64) (*tracer, error) {
	tr, out, err := medianTraced(func(tr *tracer) (*passOut, error) { return f.measure(tr, f.sp.Shards, true) })
	if err != nil {
		return nil, err
	}
	ledger(tr, 0, medianWall(untraced), layer)
	for k, v := range out.counters {
		layer[k] = v
	}
	st := tr.selfTimes().of
	recs := float64(out.records)
	sharedLayers(st, recs, layer)
	layer["stream.observe_ns_per_record"] = float64(st("stream.observe").ns) / recs
	layer["stream.close_ms"] = float64(st("stream.close").ns) / 1e6

	// Single-threaded baseline: one shard on one processor.
	prev := runtime.GOMAXPROCS(1)
	single, err := f.measure(nil, 1, false)
	runtime.GOMAXPROCS(prev)
	if err != nil {
		return nil, err
	}
	multi := perPass(untraced, func(o *passOut) float64 { return float64(o.records) / o.wall.Seconds() })
	one := float64(single.records) / single.wall.Seconds()
	fmt.Printf("baseline shards=1 gomaxprocs=1 records_per_s=%.0f; shards=%d gomaxprocs=%d records_per_s=%.0f\n",
		one, f.sp.Shards, prev, multi)
	layer["stream.shard_speedup"] = multi / one
	return tr, nil
}
