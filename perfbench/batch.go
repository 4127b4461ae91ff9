package main

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"sort"
	"time"

	"transientbd/internal/cause"
	"transientbd/internal/core"
	"transientbd/internal/simnet"
	"transientbd/internal/trace"
	"transientbd/internal/traceio"
)

// batchWorkload is `tbdetect -in trace.jsonl`: strict streaming ingest
// into the per-server grouping, core.AnalyzeSystemGrouped, then
// cause.Attribute — the calls the CLI's batch path makes, in its order.
type batchWorkload struct {
	sp  *spec
	in  *input
	ref string
	// seals holds, per congested interval of the reference report in
	// (server, interval) order, the byte offset just past the record
	// that made the interval sealable (-1: the end of the feed).
	seals []int
}

func (b *batchWorkload) prepare(in *input) error {
	b.in = in
	a, v, n, err := b.run(bytes.NewReader(in.data), 1, nil, -1)
	if err != nil {
		return err
	}
	if n != len(in.departs) {
		return fmt.Errorf("serial reference decoded %d records, the input holds %d", n, len(in.departs))
	}
	b.ref = batchDigest(a, v)
	iv := simnet.Duration(b.sp.IntervalMS) * simnet.Millisecond
	lag := int64(b.sp.FlushLagMS) * 1000
	names := make([]string, 0, len(a.PerServer))
	for s := range a.PerServer {
		names = append(names, s)
	}
	sort.Strings(names)
	for _, s := range names {
		an := a.PerServer[s]
		for i, st := range an.States {
			if st != core.StateCongested {
				continue
			}
			end := int64(an.Window.Start) + int64(i+1)*int64(iv)
			b.seals = append(b.seals, in.sealOffset(end+lag))
		}
	}
	return nil
}

// run is the batch entry point. parallelism is core.Options.Parallelism
// (0 = GOMAXPROCS, the CLI default; 1 = the serial reference).
func (b *batchWorkload) run(r io.Reader, parallelism int, tr *tracer, root int) (*core.SystemAnalysis, []cause.Verdict, int, error) {
	q := &core.TraceQuality{}
	perServer := make(map[string][]trace.Visit)
	var total int
	var maxDepart simnet.Time
	dec := tr.begin("traceio.decode", root)
	stats, err := traceio.StreamVisitsOpts(r, traceio.StreamOptions{Policy: traceio.Strict}, func(batch []trace.Visit) error {
		g := tr.begin("trace.group", dec)
		for _, v := range batch {
			perServer[v.Server] = append(perServer[v.Server], v)
			if v.Depart > maxDepart {
				maxDepart = v.Depart
			}
		}
		total += len(batch)
		tr.end(g)
		return nil
	})
	tr.end(dec)
	if err != nil {
		return nil, nil, 0, err
	}
	q.LinesRead = stats.Lines
	q.VisitsAssembled = total
	if total == 0 {
		return nil, nil, 0, errors.New("no visits in trace")
	}
	w := core.Window{End: maxDepart + 1}
	an := tr.begin("core.analyze", root)
	analysis, err := core.AnalyzeSystemGrouped(perServer, w, core.Options{
		Interval:    simnet.Duration(b.sp.IntervalMS) * simnet.Millisecond,
		Parallelism: parallelism,
		Quality:     q,
	})
	tr.end(an)
	if err != nil {
		return nil, nil, 0, err
	}
	ca := tr.begin("cause.attribute", root)
	verdicts := batchVerdicts(analysis)
	tr.end(ca)
	return analysis, verdicts, total, nil
}

// errFirst stops a set-up run once the first record is handed over.
var errFirst = errors.New("first record accepted")

func (b *batchWorkload) setup() (time.Duration, error) {
	first := b.in.data[:b.in.ends[0]]
	start := time.Now()
	var took time.Duration
	perServer := make(map[string][]trace.Visit)
	_, err := traceio.StreamVisitsOpts(bytes.NewReader(first), traceio.StreamOptions{Policy: traceio.Strict}, func(batch []trace.Visit) error {
		perServer[batch[0].Server] = append(perServer[batch[0].Server], batch[0])
		took = time.Since(start)
		return errFirst
	})
	if !errors.Is(err, errFirst) {
		return 0, fmt.Errorf("first record not accepted: %v", err)
	}
	return took, nil
}

func (b *batchWorkload) pass() (*passOut, error) {
	return b.measure(nil)
}

// measure runs one timed pass; a traced pass records its spans under a
// root span named "run".
func (b *batchWorkload) measure(tr *tracer) (*passOut, error) {
	rd := newStampedReader(b.in.data)
	m := startMeter()
	root := tr.begin("run", -1)
	a, v, n, err := b.run(rd, 0, tr, root)
	tr.end(root)
	done := time.Now()
	s := m.stop()
	if err != nil {
		return nil, err
	}
	out := &passOut{sample: s, records: int64(len(b.in.departs))}
	out.failed = out.records - int64(n)
	if got := batchDigest(a, v); got != b.ref {
		return nil, &checkFailure{msg: "batch report differs from the serial (Parallelism 1) analysis", attempted: out.records, failed: out.failed}
	}
	// Batch alerts all leave with the report.
	out.latencies = make([]float64, len(b.seals))
	for i, off := range b.seals {
		out.latencies[i] = ms(done.Sub(rd.inAt(off)))
	}
	return out, nil
}

func (b *batchWorkload) traced(untraced []*passOut, layer map[string]float64) (*tracer, error) {
	tr, out, err := medianTraced(b.measure)
	if err != nil {
		return nil, err
	}
	ledger(tr, 0, medianWall(untraced), layer)
	st := tr.selfTimes().of
	recs := float64(out.records)
	sharedLayers(st, recs, layer)
	layer["trace.group_ns_per_record"] = float64(st("trace.group").ns) / recs
	layer["core.analyze_ms"] = float64(st("core.analyze").ns) / 1e6
	layer["core.analyze_alloc_mb"] = float64(st("core.analyze").alloc) / (1 << 20)
	return tr, nil
}
