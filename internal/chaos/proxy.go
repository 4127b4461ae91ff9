package chaos

import (
	"net"
	"sync"
	"sync/atomic"
	"time"

	"transientbd/internal/frame"
)

// Proxy is a frame-aware TCP fault injector for the agent↔merge-head
// wire protocol: it sits between the two, reads whole frames with
// internal/frame (checking each CRC, without decoding payloads), and
// applies faults on the agent→head direction — drop a frame, duplicate
// it, delay it, or kill the connection halfway through one, leaving
// torn bytes the reader must reject. A partition gate blackholes both
// directions of every connection (bytes are held, connections stay
// open — the silence of a real network partition, not the clean error
// of a close).
//
// Faults count frames, not bytes, so a test can say "drop the 7th
// frame" and know exactly which batch went missing. Counters expose
// how many faults actually fired, for exact-accounting assertions.
type Proxy struct {
	// DropEvery drops every Nth agent→head frame (0 disables). The
	// head sees a sequence gap and closes; the agent retransmits.
	DropEvery int64
	// DupEvery forwards every Nth agent→head frame twice (0 disables).
	// The head's (node, seq) dedup must absorb the duplicate.
	DupEvery int64
	// Delay sleeps before forwarding each agent→head frame (0
	// disables) — a slow link, for watermark-lag tests.
	Delay time.Duration
	// KillEvery tears the connection down after forwarding half the
	// bytes of every Nth agent→head frame (0 disables) — a mid-batch
	// cut that must surface as a CRC/short-read error, never as a
	// half-applied batch.
	KillEvery int64

	lis      net.Listener
	upstream string

	mu       sync.Mutex
	conns    map[net.Conn]struct{}
	closed   bool
	sessions sync.WaitGroup

	// gate is the partition switch: Partition swaps in a fresh channel,
	// Heal closes it; copy loops block on the current gate before
	// moving bytes.
	gate      atomic.Pointer[chan struct{}]
	partition atomic.Bool
	// refusing is the outage switch: Down tears connections and refuses
	// new ones with a prompt close (a dead head), Up restores service.
	refusing atomic.Bool

	frames  atomic.Int64 // agent→head frames seen
	dropped atomic.Int64
	duped   atomic.Int64
	killed  atomic.Int64
}

// NewProxy listens on addr ("127.0.0.1:0" for tests) and forwards every
// connection to upstream. Close must be called.
func NewProxy(addr, upstream string) (*Proxy, error) {
	lis, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	p := &Proxy{lis: lis, upstream: upstream, conns: make(map[net.Conn]struct{})}
	open := make(chan struct{})
	close(open)
	p.gate.Store(&open)
	go p.accept()
	return p, nil
}

// Addr returns the proxy's listen address — what agents should dial.
func (p *Proxy) Addr() string { return p.lis.Addr().String() }

// Frames, Dropped, Duped, Killed report agent→head frames seen and
// faults fired. Safe from any goroutine.
func (p *Proxy) Frames() int64  { return p.frames.Load() }
func (p *Proxy) Dropped() int64 { return p.dropped.Load() }
func (p *Proxy) Duped() int64   { return p.duped.Load() }
func (p *Proxy) Killed() int64  { return p.killed.Load() }

// Partition blackholes all traffic, both directions: established
// connections stall mid-stream (no FIN, no RST — just silence) and new
// connections connect but never progress. The merge head's heartbeat
// timeout, not a socket error, is what must notice.
func (p *Proxy) Partition() {
	shut := make(chan struct{})
	p.gate.Store(&shut)
	p.partition.Store(true)
}

// Heal reopens the gate; stalled copies resume where they blocked.
// Bytes held in flight resume on the same connections, so a healed
// partition looks like a burst of late traffic — exactly the case the
// head's drop-with-accounting has to handle.
func (p *Proxy) Heal() {
	open := make(chan struct{})
	close(open)
	p.gate.Store(&open)
	p.partition.Store(false)
}

// Down simulates a dead upstream: every established connection is torn
// down and new ones are closed on arrival until Up. Unlike Partition,
// dialers see prompt errors — the crash outage of a dead merge head,
// not the silence of a cut cable.
func (p *Proxy) Down() {
	p.refusing.Store(true)
	p.KillAll()
}

// Up restores service after Down; agents reconnect on their next
// backoff attempt.
func (p *Proxy) Up() { p.refusing.Store(false) }

// KillAll tears down every established connection (torn sockets on
// both sides) without touching the listener: a crash of the network
// path, after which agents must redial through the proxy.
func (p *Proxy) KillAll() {
	p.mu.Lock()
	for c := range p.conns {
		c.Close()
	}
	p.mu.Unlock()
}

// Close stops the listener and every connection.
func (p *Proxy) Close() {
	p.mu.Lock()
	p.closed = true
	p.lis.Close()
	for c := range p.conns {
		c.Close()
	}
	p.mu.Unlock()
	p.sessions.Wait()
}

func (p *Proxy) accept() {
	for {
		conn, err := p.lis.Accept()
		if err != nil {
			return
		}
		p.mu.Lock()
		if p.closed {
			p.mu.Unlock()
			conn.Close()
			return
		}
		p.conns[conn] = struct{}{}
		p.sessions.Add(1)
		p.mu.Unlock()
		go p.session(conn)
	}
}

// wait blocks while the partition gate is shut. Returns false if the
// proxy closed while waiting.
func (p *Proxy) wait() bool {
	for {
		gate := *p.gate.Load()
		select {
		case <-gate:
			return true
		case <-time.After(10 * time.Millisecond):
			p.mu.Lock()
			closed := p.closed
			p.mu.Unlock()
			if closed {
				return false
			}
		}
	}
}

func (p *Proxy) track(c net.Conn) {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		c.Close()
		return
	}
	p.conns[c] = struct{}{}
	p.mu.Unlock()
}

func (p *Proxy) untrack(c net.Conn) {
	c.Close()
	p.mu.Lock()
	delete(p.conns, c)
	p.mu.Unlock()
}

// session forwards one agent connection: frame-aware with faults
// agent→head, byte-level (but gate-aware) head→agent.
func (p *Proxy) session(down net.Conn) {
	defer p.sessions.Done()
	defer p.untrack(down)
	if p.refusing.Load() {
		return // outage: the connection closes before any byte moves
	}
	up, err := net.Dial("tcp", p.upstream)
	if err != nil {
		return
	}
	p.track(up)
	defer p.untrack(up)

	go func() {
		// head→agent: acks and the goodbye echo. No frame faults, but
		// the partition gate still holds these bytes.
		buf := make([]byte, 4096)
		for {
			n, err := up.Read(buf)
			if n > 0 {
				if !p.wait() {
					return
				}
				if _, werr := down.Write(buf[:n]); werr != nil {
					return
				}
			}
			if err != nil {
				down.Close()
				return
			}
		}
	}()

	// agent→head, one frame at a time, re-sealed byte-identically for
	// forwarding. A frame that fails its length or CRC check was
	// corrupted upstream of us: there is nothing sane to forward.
	var body, raw []byte
	for {
		var err error
		if body, err = frame.Read(down, body); err != nil {
			return
		}
		if raw, err = frame.Append(raw[:0], body); err != nil {
			return
		}
		k := p.frames.Add(1)
		if !p.wait() {
			return
		}
		switch {
		case p.DropEvery > 0 && k%p.DropEvery == 0:
			p.dropped.Add(1)
			continue
		case p.KillEvery > 0 && k%p.KillEvery == 0:
			p.killed.Add(1)
			up.Write(raw[:len(raw)/2])
			up.Close()
			down.Close()
			return
		}
		if p.Delay > 0 {
			time.Sleep(p.Delay)
		}
		if _, err := up.Write(raw); err != nil {
			return
		}
		if p.DupEvery > 0 && k%p.DupEvery == 0 {
			p.duped.Add(1)
			if _, err := up.Write(raw); err != nil {
				return
			}
		}
	}
}
