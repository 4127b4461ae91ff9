// Package wal is a segment-rotated, CRC-framed write-ahead log of
// sequence-numbered records: the durability layer under the trace
// agent's send ring (internal/agent). Every batch the agent cuts is
// appended here before it is offered to the network, so a head outage
// longer than the in-memory send window spills to disk instead of
// stalling ingest, and a `kill -9` of the agent loses nothing the log
// has fsynced.
//
// # On-disk format
//
// A log is a directory of segment files named by the sequence number of
// their first record (zero-padded, so lexical order is log order):
//
//	0000000000000000000001.seg
//	0000000000000000000618.seg
//
// Each segment is a concatenation of records in the length + CRC-32
// framing defined in internal/frame, the same framing as the wire
// protocol frames they protect:
//
//	[4 bytes big-endian payload length] [payload] [4 bytes CRC-32 (IEEE) over payload]
//	payload = uvarint sequence number + opaque record body
//
// Sequence numbers are strictly contiguous (each append must be the
// predecessor's +1), which is what lets Open distinguish "clean log"
// from "corrupt log" without any index: the one legal irregularity is a
// torn final record from a crash mid-write, and Open truncates it.
//
// # Crash safety
//
// Appends are single write(2) calls followed (by default) by fsync, so
// a record is either wholly present or wholly absent after a process
// kill; a record cut mid-write by an OS crash fails its length or CRC
// check and is discarded by the next Open, which physically truncates
// the segment back to the last whole frame. Truncation by
// acknowledgment (TruncateThrough) removes only whole segments, so it
// can never tear a record either.
//
// A Log is NOT goroutine-safe: the agent's single run loop owns it.
package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"transientbd/internal/frame"
)

// MaxRecordSize bounds a record payload (sequence varint + body): the
// shared frame.MaxSize, which the wire protocol's frames obey too — WAL
// records hold encoded wire batches.
const MaxRecordSize = frame.MaxSize

const segSuffix = ".seg"

// Options configures Open.
type Options struct {
	// Dir is the log directory; created if missing.
	Dir string
	// SegmentBytes is the rotation threshold: a segment that has grown
	// past it is closed and the next append starts a new one. Default
	// 4 MiB.
	SegmentBytes int
	// NoSync skips the per-append fsync. Appends remain atomic against
	// a process kill (they are single write calls); an OS crash may
	// lose the unsynced tail. Tests use it for speed.
	NoSync bool
}

// Recovery reports what Open found on disk.
type Recovery struct {
	// Segments and Records count what survived validation. FirstSeq and
	// LastSeq bound the surviving records (both zero when the log is
	// empty).
	Segments int
	Records  int
	FirstSeq uint64
	LastSeq  uint64
	// TornBytes counts bytes discarded from the log's tail: a record
	// torn by a crash mid-write, trailing corruption, or segments left
	// unreachable behind a tear. Zero on a clean open.
	TornBytes int64
}

type segment struct {
	path  string
	first uint64 // sequence of the first record
	last  uint64 // sequence of the last record (first-1 while empty)
	size  int64
}

// Log is an open write-ahead log. Not goroutine-safe.
type Log struct {
	opts Options
	segs []segment
	cur  *os.File // active tail segment file (nil until needed)

	firstSeq uint64 // 0 when empty
	lastSeq  uint64 // survives emptiness: the contiguity anchor for appends
	records  int

	payload []byte // reused append payload: uvarint seq + body
	scratch []byte // reused append frame
}

// Open scans dir (creating it if missing), validates every record, and
// truncates any torn tail so appends resume after the last whole frame.
func Open(opts Options) (*Log, Recovery, error) {
	if opts.Dir == "" {
		return nil, Recovery{}, errors.New("wal: Options.Dir is required")
	}
	if opts.SegmentBytes <= 0 {
		opts.SegmentBytes = 4 << 20
	}
	if err := os.MkdirAll(opts.Dir, 0o755); err != nil {
		return nil, Recovery{}, fmt.Errorf("wal: %w", err)
	}
	entries, err := os.ReadDir(opts.Dir)
	if err != nil {
		return nil, Recovery{}, fmt.Errorf("wal: %w", err)
	}
	var names []string
	for _, e := range entries {
		if !e.IsDir() && strings.HasSuffix(e.Name(), segSuffix) {
			names = append(names, e.Name())
		}
	}
	sort.Strings(names)

	l := &Log{opts: opts}
	var rec Recovery
	damaged := false // a tear ends the log: later segments are unreachable
	for _, name := range names {
		path := filepath.Join(opts.Dir, name)
		if damaged {
			if fi, err := os.Stat(path); err == nil {
				rec.TornBytes += fi.Size()
			}
			if err := os.Remove(path); err != nil {
				return nil, Recovery{}, fmt.Errorf("wal: drop unreachable segment: %w", err)
			}
			continue
		}
		seg, torn, err := scanSegment(path, l.lastSeq, l.records > 0)
		if err != nil {
			return nil, Recovery{}, err
		}
		rec.TornBytes += torn
		if torn > 0 {
			damaged = true
		}
		if seg.size == 0 {
			// Nothing valid in it (empty file, corrupt from byte zero, or
			// contiguity broken at its first record).
			if err := os.Remove(path); err != nil {
				return nil, Recovery{}, fmt.Errorf("wal: drop empty segment: %w", err)
			}
			continue
		}
		if l.records == 0 {
			l.firstSeq = seg.first
		}
		l.lastSeq = seg.last
		l.records += int(seg.last - seg.first + 1)
		l.segs = append(l.segs, seg)
	}
	rec.Segments = len(l.segs)
	rec.Records = l.records
	rec.FirstSeq = l.firstSeq
	rec.LastSeq = l.lastSeq
	return l, rec, nil
}

// scanSegment validates one segment, physically truncating it to the
// last whole, contiguous record. prevSeq/havePrev anchor cross-segment
// contiguity. Returns the surviving extent and the bytes truncated.
func scanSegment(path string, prevSeq uint64, havePrev bool) (segment, int64, error) {
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		return segment{}, 0, fmt.Errorf("wal: %w", err)
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		return segment{}, 0, fmt.Errorf("wal: %w", err)
	}
	size := fi.Size()

	seg := segment{path: path}
	r := &segmentReader{f: f}
	for {
		seq, _, err := r.next()
		if err != nil {
			// io.EOF is the clean end; anything else is a torn or corrupt
			// frame — either way the valid prefix ends at r.off.
			break
		}
		if seg.size == 0 {
			if havePrev && seq != prevSeq+1 {
				// First record does not continue the previous segment: the
				// file is stale garbage (e.g. leftover from an interrupted
				// cleanup). Nothing in it is reachable.
				break
			}
			seg.first = seq
		} else if seq != seg.last+1 {
			break // contiguity broken mid-segment: truncate here
		}
		seg.last = seq
		seg.size = r.off
	}
	torn := size - seg.size
	if torn > 0 {
		if err := f.Truncate(seg.size); err != nil {
			return segment{}, 0, fmt.Errorf("wal: truncate torn tail: %w", err)
		}
		if err := f.Sync(); err != nil {
			return segment{}, 0, fmt.Errorf("wal: %w", err)
		}
	}
	return seg, torn, nil
}

// segmentReader walks records in one segment file, tracking the offset
// of the next unread frame so callers know the valid-prefix boundary.
type segmentReader struct {
	f   *os.File
	off int64 // offset of the next unread frame (updated on success only)
	buf []byte
}

// next reads one record. io.EOF means a clean segment end; any framing
// violation (short read, oversized length, CRC mismatch, bad sequence
// varint) is a distinct error, with r.off still at the broken frame's
// start. The returned body aliases r.buf until the following next.
func (r *segmentReader) next() (uint64, []byte, error) {
	var err error
	if r.buf, err = frame.Read(r.f, r.buf); err != nil {
		if err == io.EOF {
			return 0, nil, io.EOF
		}
		return 0, nil, fmt.Errorf("wal: record: %w", err)
	}
	seq, vn := binary.Uvarint(r.buf)
	if vn <= 0 || seq == 0 {
		return 0, nil, errors.New("wal: malformed record sequence")
	}
	r.off += int64(frame.Overhead + len(r.buf))
	return seq, r.buf[vn:], nil
}

// seek positions the reader at the frame holding seq, scanning from the
// current position. The frame is not consumed.
func (r *segmentReader) seek(seq uint64) error {
	for {
		start := r.off
		s, _, err := r.next()
		if err != nil {
			return fmt.Errorf("wal: seek %d: %w", seq, err)
		}
		if s == seq {
			if _, err := r.f.Seek(start, io.SeekStart); err != nil {
				return fmt.Errorf("wal: %w", err)
			}
			r.off = start
			return nil
		}
		if s > seq {
			return fmt.Errorf("wal: seek overshot %d at %d", seq, s)
		}
	}
}

// FirstSeq returns the oldest record's sequence (0 when empty).
func (l *Log) FirstSeq() uint64 { return l.firstSeq }

// LastSeq returns the newest record's sequence ever appended. It
// survives the log becoming empty by truncation, anchoring append
// contiguity.
func (l *Log) LastSeq() uint64 { return l.lastSeq }

// Records returns the number of records currently held.
func (l *Log) Records() int { return l.records }

// Segments returns the number of on-disk segment files.
func (l *Log) Segments() int { return len(l.segs) }

func segName(seq uint64) string {
	return fmt.Sprintf("%022d%s", seq, segSuffix)
}

// Append durably adds one record. seq must be LastSeq+1 when the log
// has ever held a record (contiguity is the recovery invariant); the
// very first append sets the origin. The body is copied to disk before
// Append returns.
func (l *Log) Append(seq uint64, body []byte) error {
	if seq == 0 {
		return errors.New("wal: sequence 0 is reserved")
	}
	if l.lastSeq != 0 && seq != l.lastSeq+1 {
		return fmt.Errorf("wal: non-contiguous append: have %d, got %d", l.lastSeq, seq)
	}
	if err := l.tailForAppend(seq); err != nil {
		return err
	}
	l.payload = binary.AppendUvarint(l.payload[:0], seq)
	l.payload = append(l.payload, body...)
	rec, err := frame.Append(l.scratch[:0], l.payload)
	if err != nil {
		return fmt.Errorf("wal: record of %d bytes: %w", len(l.payload), err)
	}
	l.scratch = rec
	if _, err := l.cur.Write(l.scratch); err != nil {
		return fmt.Errorf("wal: append: %w", err)
	}
	if !l.opts.NoSync {
		if err := l.cur.Sync(); err != nil {
			return fmt.Errorf("wal: sync: %w", err)
		}
	}
	seg := &l.segs[len(l.segs)-1]
	seg.last = seq
	seg.size += int64(len(l.scratch))
	l.lastSeq = seq
	if l.records == 0 {
		l.firstSeq = seq
	}
	l.records++
	return nil
}

// tailForAppend ensures l.cur is an open segment with room: the
// recovered tail (re-opened lazily), or a fresh segment whose first
// record will be seq.
func (l *Log) tailForAppend(seq uint64) error {
	if n := len(l.segs); n > 0 && l.segs[n-1].size < int64(l.opts.SegmentBytes) {
		if l.cur == nil {
			f, err := os.OpenFile(l.segs[n-1].path, os.O_WRONLY|os.O_APPEND, 0o644)
			if err != nil {
				return fmt.Errorf("wal: %w", err)
			}
			l.cur = f
		}
		return nil
	}
	// Rotate: close the full tail (if open) and start a new segment.
	if l.cur != nil {
		if err := l.cur.Close(); err != nil {
			return fmt.Errorf("wal: %w", err)
		}
		l.cur = nil
	}
	path := filepath.Join(l.opts.Dir, segName(seq))
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_EXCL, 0o644)
	if err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	l.segs = append(l.segs, segment{path: path, first: seq, last: seq - 1})
	l.cur = f
	return nil
}

// TruncateThrough removes whole segments every record of which has
// sequence ≤ seq — the acknowledgment-driven cleanup. Records above seq
// are never touched (removal is whole-segment, so the newest segment
// usually survives until rotation moves past it). Returns the number of
// segments removed.
func (l *Log) TruncateThrough(seq uint64) (int, error) {
	removed := 0
	for len(l.segs) > 0 && l.segs[0].last >= l.segs[0].first && l.segs[0].last <= seq {
		s := l.segs[0]
		if len(l.segs) == 1 && l.cur != nil {
			// Dropping the active tail: release its handle first.
			if err := l.cur.Close(); err != nil {
				return removed, fmt.Errorf("wal: %w", err)
			}
			l.cur = nil
		}
		if err := os.Remove(s.path); err != nil {
			return removed, fmt.Errorf("wal: %w", err)
		}
		l.segs = l.segs[1:]
		l.records -= int(s.last - s.first + 1)
		removed++
	}
	if l.records == 0 {
		l.firstSeq = 0
	} else {
		l.firstSeq = l.segs[0].first
	}
	return removed, nil
}

// Close releases the active segment file. The log remains valid on
// disk; Open resumes it.
func (l *Log) Close() error {
	if l.cur == nil {
		return nil
	}
	err := l.cur.Close()
	l.cur = nil
	return err
}

// Cursor reads records in sequence order. It holds its own file
// handles, so reads never disturb the append position; because the
// owner serializes reads and appends (the agent's single run loop), a
// cursor never observes a partial frame.
type Cursor struct {
	l    *Log
	segi int
	next uint64
	r    segmentReader
}

// ReadCursor positions a cursor so its first Next returns the record
// with sequence seq, which must currently be in the log. Seeking scans
// the containing segment from its start — cheap at segment sizes, and
// cursors are recreated rarely (reconnect fast-forward, spill-drain
// start).
func (l *Log) ReadCursor(seq uint64) (*Cursor, error) {
	c := &Cursor{l: l, next: seq, segi: -1}
	for i := range l.segs {
		s := &l.segs[i]
		if seq >= s.first && seq <= s.last {
			c.segi = i
			break
		}
	}
	if c.segi < 0 {
		return nil, fmt.Errorf("wal: sequence %d not in log [%d, %d]", seq, l.firstSeq, l.lastSeq)
	}
	if err := c.openSeg(); err != nil {
		return nil, err
	}
	if err := c.r.seek(seq); err != nil {
		c.Close()
		return nil, err
	}
	return c, nil
}

func (c *Cursor) openSeg() error {
	if c.r.f != nil {
		c.r.f.Close()
	}
	f, err := os.Open(c.l.segs[c.segi].path)
	if err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	c.r = segmentReader{f: f}
	return nil
}

// Next returns the next record in sequence order, or io.EOF once past
// the newest record appended so far (a later Next after more appends
// continues — the spill-drain pattern). The returned body aliases an
// internal buffer valid until the following Next.
func (c *Cursor) Next() (uint64, []byte, error) {
	if c.next > c.l.lastSeq || c.l.records == 0 {
		return 0, nil, io.EOF
	}
	for {
		seq, body, err := c.r.next()
		if err == io.EOF {
			// End of this segment: the record must be in a later one. The
			// segment index may have shifted under truncation, so re-find
			// the segment holding c.next.
			found := -1
			for i := range c.l.segs {
				s := &c.l.segs[i]
				if c.next >= s.first && c.next <= s.last {
					found = i
					break
				}
			}
			if found < 0 {
				return 0, nil, io.EOF
			}
			c.segi = found
			if err := c.openSeg(); err != nil {
				return 0, nil, err
			}
			continue
		}
		if err != nil {
			return 0, nil, err
		}
		if seq != c.next {
			return 0, nil, fmt.Errorf("wal: cursor wanted %d, read %d", c.next, seq)
		}
		c.next = seq + 1
		return seq, body, nil
	}
}

// Close releases the cursor's file handle. The cursor's Log is not
// affected.
func (c *Cursor) Close() error {
	if c.r.f == nil {
		return nil
	}
	err := c.r.f.Close()
	c.r.f = nil
	return err
}
