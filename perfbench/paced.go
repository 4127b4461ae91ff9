package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sort"
	"sync"
	"time"

	"transientbd/internal/agent"
	"transientbd/internal/cause"
	"transientbd/internal/merge"
	"transientbd/internal/serve"
	"transientbd/internal/simnet"
	"transientbd/internal/stream"
	"transientbd/internal/trace"
	"transientbd/internal/traceio"
	"transientbd/internal/wire"
)

// writeQuantum is the open-loop schedule's granularity: each record is
// due at the start of the millisecond its departure, divided by the
// speed-up, falls into, and the generator writes a millisecond's
// records in one write per node.
const writeQuantum = time.Millisecond

// agentBatch is the agent's default batch size, which the socket-free
// replay reproduces.
const agentBatch = 512

// tick is one scheduled write: every node's records due at the same
// quantum, as a byte range of that node's feed.
type tick struct {
	due      time.Duration
	from, to []int
}

// pacedWorkload is `tbdetect merge -http` with two `tbdetect agent`s
// over loopback, fed on a fixed schedule: the trace split by server
// into per-node depart-ordered feeds, each record written when its
// departure time divided by the speed-up comes due.
type pacedWorkload struct {
	sp    *spec
	in    *input
	nodes []string
	feeds [][]byte
	ticks []tick
	ref   string
	// sealDue holds, per congested reference alert, the schedule time
	// after which its interval was sealable: the latest over nodes of
	// the due time of the node's first record departing at or after
	// the interval end plus FlushLag.
	sealDue []time.Duration
}

func (p *pacedWorkload) prepare(in *input) error {
	p.in = in
	n := p.sp.Paced.Nodes
	if n < 1 || p.sp.Paced.Speedup <= 0 {
		return errors.New("spec: paced.nodes and paced.speedup must be positive")
	}
	for i := 0; i < n; i++ {
		p.nodes = append(p.nodes, fmt.Sprintf("node-%d", i))
	}
	// Servers go to nodes round-robin in name order.
	nodeOf := func(rec int) int { return in.server[rec] % n }
	due := func(rec int) time.Duration {
		d := time.Duration(float64(in.departs[rec]-in.departs[0]) * float64(time.Microsecond) / p.sp.Paced.Speedup)
		return d.Truncate(writeQuantum)
	}
	p.feeds = make([][]byte, n)
	nodeDeparts := make([][]int64, n)
	nodeDue := make([][]time.Duration, n)
	start := 0
	for rec := range in.departs {
		node := nodeOf(rec)
		line := in.data[start:in.ends[rec]]
		start = in.ends[rec]
		d := due(rec)
		if len(p.ticks) == 0 || p.ticks[len(p.ticks)-1].due != d {
			t := tick{due: d, from: make([]int, n), to: make([]int, n)}
			for i := range t.from {
				t.from[i] = len(p.feeds[i])
				t.to[i] = len(p.feeds[i])
			}
			p.ticks = append(p.ticks, t)
		}
		p.feeds[node] = append(p.feeds[node], line...)
		p.ticks[len(p.ticks)-1].to[node] = len(p.feeds[node])
		nodeDeparts[node] = append(nodeDeparts[node], in.departs[rec])
		nodeDue[node] = append(nodeDue[node], d)
	}
	ref, digest, err := followReference(p.sp, in)
	if err != nil {
		return err
	}
	p.ref = digest
	for _, t := range congestedSeals(p.sp, ref.log.alerts) {
		var latest time.Duration
		for node := range nodeDeparts {
			ds := nodeDeparts[node]
			i := sort.Search(len(ds), func(i int) bool { return ds[i] >= t })
			if i == len(ds) {
				i = len(ds) - 1 // only the node's end of feed gets there
			}
			if i >= 0 && nodeDue[node][i] > latest {
				latest = nodeDue[node][i]
			}
		}
		p.sealDue = append(p.sealDue, latest)
	}
	return nil
}

// head is one merge head with its serving layer, as `tbdetect merge
// -http` wires them, plus the agents shipping to it.
type head struct {
	srv    *merge.Server
	http   *serve.Server
	log    alertLog
	logged chan struct{}

	cancel   context.CancelFunc
	agents   sync.WaitGroup
	agentMu  sync.Mutex
	agentM   []agent.Metrics
	agentErr error
}

func (p *pacedWorkload) mergeConfig() merge.Config {
	return merge.Config{
		Stream:      stream.Config{Online: onlineOptions(p.sp), Shards: p.sp.Shards},
		FlushLag:    simnet.Duration(p.sp.FlushLagMS) * simnet.Millisecond,
		ExpectNodes: p.nodes,
	}
}

// startHead starts the head and one agent per feed; each agent reads
// its node's feed from srcs.
func (p *pacedWorkload) startHead(srcs []io.Reader) (*head, error) {
	key := []byte(p.sp.Paced.AuthKey)
	srv, err := merge.NewServer(merge.ServerConfig{Core: p.mergeConfig(), AuthKey: key})
	if err != nil {
		return nil, err
	}
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	h := &head{srv: srv, logged: make(chan struct{})}
	go h.log.drain(srv.Alerts(), h.logged)
	h.http = serve.New(serve.Config{
		Metrics:       srv.Metrics,
		Health:        srv.ShardHealth,
		Nodes:         func() []serve.NodeView { return nodeViews(srv.NodeStatuses()) },
		PeersRejected: srv.AuthRejects,
	})
	h.http.SetReady(true)
	ctx, cancel := context.WithCancel(context.Background())
	h.cancel = cancel
	for i, src := range srcs {
		h.agents.Add(1)
		go func(node string, src io.Reader) {
			defer h.agents.Done()
			m, err := agent.Run(ctx, src, agent.Config{Node: node, Addr: addr, AuthKey: key, MaxDials: 5})
			h.agentMu.Lock()
			defer h.agentMu.Unlock()
			h.agentM = append(h.agentM, m)
			if err != nil && h.agentErr == nil {
				h.agentErr = fmt.Errorf("agent %s: %w", node, err)
			}
		}(p.nodes[i], src)
	}
	return h, nil
}

// stop waits for the agents, then tears the head down.
func (h *head) stop() error {
	h.agents.Wait()
	h.cancel()
	h.srv.Close()
	<-h.logged
	return h.agentErr
}

// setup times the distributed entry point from a cold start — listener,
// serving layer, both authenticated handshakes — until every agent has
// had its first record accepted by the head.
func (p *pacedWorkload) setup() (time.Duration, error) {
	srcs := make([]io.Reader, len(p.feeds))
	for i, f := range p.feeds {
		srcs[i] = bytes.NewReader(f[:bytes.IndexByte(f, '\n')+1])
	}
	start := time.Now()
	h, err := p.startHead(srcs)
	if err != nil {
		return 0, err
	}
	h.agents.Wait()
	took := time.Since(start)
	if err := h.stop(); err != nil {
		return 0, err
	}
	return took, nil
}

// waitHandshakes blocks until every expected node has a session.
func (h *head) waitHandshakes(n int) error {
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		ready := 0
		for _, st := range h.srv.NodeStatuses() {
			if st.Sessions > 0 {
				ready++
			}
		}
		if ready == n {
			return nil
		}
		time.Sleep(time.Millisecond)
	}
	return errors.New("agents did not complete their handshakes within 30s")
}

// scrape reads one route through the serving layer's handler in
// process, as an HTTP scraper would see it.
func scrape(h http.Handler, path string) error {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
	if rec.Code != http.StatusOK && !(path == "/report" && rec.Code == http.StatusServiceUnavailable) {
		return fmt.Errorf("GET %s: status %d", path, rec.Code)
	}
	return nil
}

func (p *pacedWorkload) pass() (*passOut, error) {
	srcs := make([]io.Reader, len(p.feeds))
	pipesR := make([]*io.PipeReader, len(p.feeds))
	pipesW := make([]*io.PipeWriter, len(p.feeds))
	for i := range p.feeds {
		pipesR[i], pipesW[i] = io.Pipe()
		srcs[i] = pipesR[i]
	}
	h, err := p.startHead(srcs)
	if err != nil {
		return nil, err
	}
	// abort unblocks the agents and the generator after a failure.
	abort := func(err error) {
		for i := range pipesR {
			pipesR[i].CloseWithError(err)
			pipesW[i].CloseWithError(err)
		}
		h.cancel()
	}
	if err := h.waitHandshakes(len(p.nodes)); err != nil {
		abort(err)
		h.stop()
		return nil, err
	}

	m := startMeter()
	start := time.Now()
	stopPublish := every(time.Duration(p.sp.Paced.PublishEveryMS)*time.Millisecond, func() {
		if snap, err := h.srv.Snapshot(); err == nil {
			h.http.PublishSnapshot(snap)
		}
	})
	var scrapeErr error
	stopScrape := every(time.Duration(p.sp.Paced.ScrapeEveryMS)*time.Millisecond, func() {
		for _, path := range []string{"/metrics", "/report"} {
			if err := scrape(h.http.Handler(), path); err != nil && scrapeErr == nil {
				scrapeErr = err
			}
		}
	})
	lags := make([]float64, 0, len(p.ticks))
	genDone := make(chan error, 1)
	go func() {
		genDone <- p.generate(start, pipesW, &lags)
	}()

	var snap *stream.Snapshot
	var verdicts []cause.Verdict
	select {
	case <-h.srv.Done():
		snap = h.srv.Final()
		<-h.logged // the alert stream closes once the head has finished
		verdicts = onlineVerdicts(snap)
	case <-time.After(150 * time.Second):
		err = errors.New("merge head did not finish within 150s")
		abort(err)
	}
	s := m.stop()
	s.wall = time.Since(start)
	stopScrape()
	stopPublish()
	if gerr := <-genDone; err == nil {
		err = gerr
	}
	statuses := h.srv.NodeStatuses()
	degrades := h.srv.Degrades()
	if serr := h.stop(); err == nil {
		err = serr
	}
	if err == nil {
		err = scrapeErr
	}
	if err != nil {
		return nil, err
	}

	out := &passOut{sample: s, records: int64(len(p.in.departs)), lags: lags}
	var delivered int64
	for _, st := range statuses {
		delivered += st.Delivered - st.Dropped - st.Invalid
	}
	out.failed = out.records - delivered + lostRecords(snap.Metrics)
	if got := followDigest(h.log.alerts, snap, verdicts); got != p.ref {
		return nil, &checkFailure{msg: "merge output differs from the untimed follow run of the same records", attempted: out.records, failed: out.failed}
	}
	at := h.log.congestedAt()
	out.latencies = make([]float64, len(at))
	for i, t := range at {
		out.latencies[i] = ms(t.Sub(start.Add(p.sealDue[i])))
	}
	var sent, retrans float64
	for _, am := range h.agentM {
		sent += float64(am.BatchesSent)
		retrans += float64(am.Retransmits)
	}
	out.counters = map[string]float64{
		"agent.batches_sent":     sent,
		"agent.retransmits":      retrans,
		"merge.degrades":         float64(degrades),
		"stream.reestimates":     float64(snap.Metrics.Reestimates),
		"stream.late_records":    float64(snap.Metrics.Late),
		"stream.dropped_records": float64(snap.Metrics.Dropped),
	}
	return out, nil
}

// generate is the open-loop generator: it writes each tick's bytes to
// the node pipes when the tick comes due, whether or not the system
// has kept up, and records how late each write started.
func (p *pacedWorkload) generate(start time.Time, pipes []*io.PipeWriter, lags *[]float64) error {
	defer func() {
		for _, w := range pipes {
			w.Close()
		}
	}()
	for _, t := range p.ticks {
		if d := time.Until(start.Add(t.due)); d > 0 {
			time.Sleep(d)
		}
		*lags = append(*lags, ms(time.Since(start.Add(t.due))))
		for node, w := range pipes {
			if t.to[node] > t.from[node] {
				if _, err := w.Write(p.feeds[node][t.from[node]:t.to[node]]); err != nil {
					return fmt.Errorf("generator: write to %s: %w", p.nodes[node], err)
				}
			}
		}
	}
	return nil
}

// nodeViews adapts the head's per-node accounting to the serving
// layer's view, field for field as `tbdetect merge -http` does.
func nodeViews(sts []merge.NodeStatus) []serve.NodeView {
	views := make([]serve.NodeView, len(sts))
	for i, st := range sts {
		views[i] = serve.NodeView{
			Node: st.Node, WatermarkMicros: int64(st.Watermark), LastSeq: st.LastSeq,
			Sessions: st.Sessions, Connected: st.Connected, Degraded: st.Degraded, EOF: st.EOF,
			Delivered: st.Delivered, Deduped: st.Deduped, Dropped: st.Dropped, Invalid: st.Invalid,
			Buffered: st.Buffered, LastFrameWall: st.LastFrameWall,
			WALDepth: st.WALDepth, WALSegments: st.WALSegments, Spilling: st.Spilling,
		}
	}
	return views
}

// wireBatch is one agent batch as the head receives it.
type wireBatch struct {
	node    int
	seq     uint64
	last    int64 // newest departure in the batch, µs
	payload []byte
}

// replay feeds the head's layers the same node batches through their
// public calls, without sockets or sessions: each node's feed is
// decoded and cut into agent-sized batches, encoded and decoded with
// the wire codec, applied with merge.Core.Batch in node-interleaved
// order, snapshotted and published every publish period and scraped
// every scrape period (both in trace time at the spec's speed-up), and
// finished. All spans hang off one root span named "run".
func (p *pacedWorkload) replay(tr *tracer) (*replayResult, error) {
	root := tr.begin("run", -1)
	defer tr.end(root)
	res := &replayResult{}
	var batches []wireBatch
	for node, feed := range p.feeds {
		var seq uint64
		dec := tr.begin("traceio.decode", root)
		_, err := traceio.StreamVisitsOpts(bytes.NewReader(feed), traceio.StreamOptions{BatchSize: agentBatch}, func(vs []trace.Visit) error {
			enc := tr.begin("wire.encode", dec)
			seq++
			batches = append(batches, wireBatch{node: node, seq: seq, last: int64(vs[len(vs)-1].Depart), payload: wire.AppendVisits(nil, vs)})
			tr.end(enc)
			return nil
		})
		tr.end(dec)
		if err != nil {
			return nil, err
		}
	}
	// An agent sends a batch once its last record has been read, so the
	// head sees batches in order of their newest departure.
	sort.SliceStable(batches, func(i, j int) bool { return batches[i].last < batches[j].last })

	nw := tr.begin("merge.new", root)
	c, err := merge.New(p.mergeConfig())
	tr.end(nw)
	if err != nil {
		return nil, err
	}
	drained := make(chan struct{})
	go res.log.drain(c.Alerts(), drained)
	hs := serve.New(serve.Config{
		Metrics: c.Metrics,
		Health:  c.ShardHealth,
		Nodes:   func() []serve.NodeView { return nodeViews(c.NodeStatuses()) },
	})
	for _, n := range p.nodes {
		c.Admit(n, 1)
	}
	traceStep := func(ms int64) int64 { return int64(float64(ms*1000) * p.sp.Paced.Speedup) }
	pubEvery, scrapeEvery := traceStep(p.sp.Paced.PublishEveryMS), traceStep(p.sp.Paced.ScrapeEveryMS)
	first := p.in.departs[0]
	nextPub, nextScrape := first+pubEvery, first+scrapeEvery
	lastSeq := make([]uint64, len(p.nodes))
	err = func() error {
		for _, b := range batches {
			d := tr.begin("wire.decode", root)
			vs, err := wire.DecodeVisits(b.payload)
			tr.end(d)
			if err != nil {
				return err
			}
			mb := tr.begin("merge.batch", root)
			_, err = c.Batch(p.nodes[b.node], b.seq, vs)
			tr.end(mb)
			if err != nil {
				return err
			}
			lastSeq[b.node] = b.seq
			res.records += int64(len(vs))
			res.wireBytes += int64(len(b.payload))
			for ; b.last >= nextScrape; nextScrape += scrapeEvery {
				for _, path := range []string{"/metrics", "/report"} {
					sc := tr.begin("serve.scrape"+path, root)
					err := scrape(hs.Handler(), path)
					tr.end(sc)
					if err != nil {
						return err
					}
				}
			}
			for ; b.last >= nextPub; nextPub += pubEvery {
				sn := tr.begin("stream.snapshot", root)
				snap := c.Snapshot()
				tr.end(sn)
				pb := tr.begin("serve.publish", root)
				hs.PublishSnapshot(snap)
				tr.end(pb)
			}
		}
		for i, n := range p.nodes {
			if err := c.EOF(n, lastSeq[i]); err != nil {
				return err
			}
		}
		return nil
	}()
	if err != nil {
		c.Abort()
		<-drained
		return nil, err
	}
	fin := tr.begin("merge.finish", root)
	res.snap = c.Finish()
	tr.end(fin)
	<-drained
	ca := tr.begin("cause.attribute", root)
	res.verdicts = onlineVerdicts(res.snap)
	tr.end(ca)
	return res, nil
}

// replayResult is one socket-free replay's output.
type replayResult struct {
	log                alertLog
	snap               *stream.Snapshot
	verdicts           []cause.Verdict
	records, wireBytes int64
}

// replayPass measures one replay and checks its output.
func (p *pacedWorkload) replayPass(tr *tracer) (*passOut, error) {
	m := startMeter()
	res, err := p.replay(tr)
	s := m.stop()
	if err != nil {
		return nil, err
	}
	out := &passOut{sample: s, records: res.records, failed: lostRecords(res.snap.Metrics),
		counters: map[string]float64{"wire.bytes_per_record": float64(res.wireBytes) / float64(res.records)}}
	if got := followDigest(res.log.alerts, res.snap, res.verdicts); got != p.ref {
		return nil, &checkFailure{msg: "socket-free merge replay differs from the untimed follow run", attempted: out.records, failed: out.failed}
	}
	return out, nil
}

func (p *pacedWorkload) traced(untraced []*passOut, layer map[string]float64) (*tracer, error) {
	// Untraced replays give the overhead and CPU baseline.
	plain := make([]*passOut, 0, tracedPasses)
	for i := 0; i < tracedPasses; i++ {
		out, err := p.replayPass(nil)
		if err != nil {
			return nil, err
		}
		plain = append(plain, out)
	}
	tr, out, err := medianTraced(p.replayPass)
	if err != nil {
		return nil, err
	}
	ledger(tr, 0, medianWall(plain), layer)
	cpu := func(o *passOut) float64 { return float64(o.cpu) }
	e2eCPU, replayCPU := time.Duration(perPass(untraced, cpu)), time.Duration(perPass(plain, cpu))
	fmt.Printf("ledger socket_and_session_cpu_ms=%.3f (end-to-end CPU %.3f ms − socket-free replay CPU %.3f ms)\n",
		ms(e2eCPU-replayCPU), ms(e2eCPU), ms(replayCPU))
	layer["run.socket_session_cpu_ms"] = ms(e2eCPU - replayCPU)

	get := tr.selfTimes().of
	recs := float64(out.records)
	sharedLayers(get, recs, layer)
	layer["wire.bytes_per_record"] = out.counters["wire.bytes_per_record"]
	layer["wire.encode_ns_per_record"] = float64(get("wire.encode").ns) / recs
	layer["wire.decode_ns_per_record"] = float64(get("wire.decode").ns) / recs
	layer["wire.decode_alloc_bytes_per_record"] = float64(get("wire.decode").alloc) / recs
	layer["merge.batch_ns_per_record"] = float64(get("merge.batch").ns) / recs
	layer["merge.finish_ms"] = float64(get("merge.finish").ns) / 1e6
	perCall := func(name string, unit float64) float64 {
		s := get(name)
		if s.count == 0 {
			return 0
		}
		return float64(s.ns) / float64(s.count) / unit
	}
	layer["stream.snapshot_ms"] = perCall("stream.snapshot", 1e6)
	layer["serve.publish_ms"] = perCall("serve.publish", 1e6)
	layer["serve.metrics_scrape_us"] = perCall("serve.scrape/metrics", 1e3)
	layer["serve.report_scrape_us"] = perCall("serve.scrape/report", 1e3)
	return tr, nil
}
