// Package traceio serializes wire traces and visit records as JSON Lines,
// the interchange format between the simulator CLI (cmd/ntiersim) and the
// analyzer CLI (cmd/tbdetect) — and a practical format for feeding real
// packet-capture-derived records to the detector.
//
// Two reading modes exist. ReadVisits materializes the whole trace, which
// is convenient for tests and small captures. StreamVisits decodes in
// batches of up to BatchSize records and hands each batch to a callback,
// so consumers (like tbdetect) can fold records into their own per-server
// state without the process ever holding a second full copy of the
// trace; its memory use is O(batch), independent of trace length. A batch
// is cut short when the source has caught up — every buffered byte is
// decoded and the last read came back short, as a pipe or socket does
// when the writer is idle — so a live feed never withholds decoded
// records. Files and in-memory readers return full reads, so their cuts
// fall every BatchSize records.
//
// # Decoding
//
// Lines are read in place from the read buffer: a line's bytes are valid
// only inside the per-line decode step, and every string a record carries
// is a copy. A visit line made only of the seven lowercase schema keys,
// printable-ASCII strings without escapes, integers that fit in int64 and
// JSON whitespace — the canonical form WriteVisits emits — is decoded by
// a schema-specific scanner without allocating: server and class names
// are interned per read in a table capped at maxInterned entries. Every
// other line (escapes, case-folded or unknown keys, null, floats,
// overflow, malformed input) falls back to encoding/json, so errors,
// Stats and policy behaviour are encoding/json's by construction.
//
// # Degraded inputs
//
// Real passive captures are messy: truncated files, half-written final
// lines, corrupt bytes in the middle. Decoding is line-oriented, so a bad
// line never poisons the rest of the stream — the reader resumes at the
// next newline. What happens to the bad line is the caller's choice via
// StreamOptions.Policy: Strict (fail on the first bad line, the default
// and the historical behavior) or Skip (count it, optionally aborting
// after MaxErrors bad lines, and keep going). Every *Opts reader reports
// a Stats block so callers can surface how much of the input was usable.
//
// # Concurrency
//
// The free functions are safe to call concurrently on distinct readers
// and writers, but a single reader or writer must not be shared: JSONL
// decoding is inherently sequential. StreamVisits reuses its batch slice
// between callback invocations — the callback must finish with (or copy)
// the batch before returning, and must not retain it.
package traceio

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"

	"transientbd/internal/simnet"
	"transientbd/internal/trace"
)

// visitRecord is the JSONL schema for one visit. Times are microseconds
// from the trace epoch.
type visitRecord struct {
	Server    string `json:"server"`
	Class     string `json:"class,omitempty"`
	TxnID     int64  `json:"txn,omitempty"`
	HopID     int64  `json:"hop,omitempty"`
	ArriveUS  int64  `json:"arrive_us"`
	DepartUS  int64  `json:"depart_us"`
	DownstrUS int64  `json:"downstream_us,omitempty"`
}

// messageRecord is the JSONL schema for one wire message.
type messageRecord struct {
	AtUS      int64  `json:"at_us"`
	From      string `json:"from"`
	To        string `json:"to"`
	Dir       string `json:"dir"`
	Class     string `json:"class,omitempty"`
	Conn      int64  `json:"conn,omitempty"`
	TxnID     int64  `json:"txn,omitempty"`
	HopID     int64  `json:"hop,omitempty"`
	ParentHop int64  `json:"parent,omitempty"`
	Bytes     int64  `json:"bytes,omitempty"`
}

// WriteVisits writes visits as JSONL.
func WriteVisits(w io.Writer, visits []trace.Visit) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for i, v := range visits {
		rec := visitRecord{
			Server:    v.Server,
			Class:     v.Class,
			TxnID:     v.TxnID,
			HopID:     v.HopID,
			ArriveUS:  int64(v.Arrive),
			DepartUS:  int64(v.Depart),
			DownstrUS: int64(v.Downstream),
		}
		if err := enc.Encode(&rec); err != nil {
			return fmt.Errorf("traceio: write visit %d: %w", i, err)
		}
	}
	return bw.Flush()
}

// DefaultBatch is the StreamVisits batch size used by the CLI tools: big
// enough to amortize callback dispatch, small enough that a batch stays
// cache- and allocation-friendly.
const DefaultBatch = 8192

// Policy selects what a reader does with a line it cannot use.
type Policy int

// Line-error policies.
const (
	// Strict fails the whole read on the first bad line.
	Strict Policy = iota
	// Skip counts bad lines and keeps reading from the next newline.
	// Combine with StreamOptions.MaxErrors to abort after N bad lines.
	Skip
)

// StreamOptions tunes a streaming read.
type StreamOptions struct {
	// Policy is the per-line error policy (default Strict).
	Policy Policy
	// MaxErrors aborts a Skip-policy read once this many lines have been
	// skipped (the "a trickle of corruption is fine, a flood is not"
	// guard). 0 means unlimited.
	MaxErrors int
	// BatchSize is the StreamVisits batch size (<= 0 uses DefaultBatch).
	BatchSize int
}

// ErrTooManyBadLines aborts a Skip-policy read that exceeded MaxErrors.
var ErrTooManyBadLines = errors.New("traceio: too many corrupt lines")

// LineError records one unusable input line.
type LineError struct {
	// Line is the 1-based line number (blank lines count).
	Line int
	// Err says what was wrong with it.
	Err error
}

// maxKeptErrors bounds the per-read error detail Stats retains; counters
// keep counting past it.
const maxKeptErrors = 8

// Stats summarizes one read of a possibly degraded input.
type Stats struct {
	// Lines is the number of non-blank lines seen.
	Lines int
	// Decoded is the number of usable records produced.
	Decoded int
	// Malformed counts lines that were not valid JSON (including a
	// truncated final line with no trailing newline).
	Malformed int
	// Invalid counts lines that decoded but failed validation (missing
	// server, departure before arrival, unknown direction).
	Invalid int
	// Errors holds the first few line errors, for diagnostics.
	Errors []LineError
}

// Skipped is the total number of unusable lines.
func (s Stats) Skipped() int { return s.Malformed + s.Invalid }

func (s *Stats) record(line int, malformed bool, err error) {
	if malformed {
		s.Malformed++
	} else {
		s.Invalid++
	}
	if len(s.Errors) < maxKeptErrors {
		s.Errors = append(s.Errors, LineError{Line: line, Err: err})
	}
}

// errAbort wraps an error that must stop the read immediately and
// propagate verbatim (a callback failure), bypassing the line policy.
type errAbort struct{ err error }

func (e errAbort) Error() string { return e.err.Error() }

// shortReader notes whether the last Read returned less than it was
// asked for: the sign that the source has caught up with its writer.
type shortReader struct {
	r     io.Reader
	short bool
}

func (s *shortReader) Read(p []byte) (int, error) {
	n, err := s.r.Read(p)
	s.short = n < len(p)
	return n, err
}

// decodeLines drives the shared line-oriented read loop: decode is called
// with each non-blank line and reports whether the failure (if any) was a
// malformed line (bad JSON) or an invalid record. The line bytes alias the
// read buffer and are valid only during the call. idle, when non-nil, runs
// whenever every buffered byte is decoded and the last read came back
// short; its error aborts the read and is returned verbatim.
func decodeLines(r io.Reader, opts StreamOptions, decode func(line int, data []byte) (malformed bool, err error), idle func() error) (stats Stats, err error) {
	defer func() { stats.Decoded = stats.Lines - stats.Skipped() }()
	src := &shortReader{r: r}
	br := bufio.NewReaderSize(src, 64<<10)
	var long []byte // reused scratch for lines longer than the buffer
	for line := 1; ; line++ {
		data, rerr := br.ReadSlice('\n')
		if rerr == bufio.ErrBufferFull {
			long = append(long[:0], data...)
			for rerr == bufio.ErrBufferFull {
				data, rerr = br.ReadSlice('\n')
				long = append(long, data...)
			}
			data = long
		}
		trimmed := bytes.TrimSpace(data)
		if len(trimmed) > 0 {
			stats.Lines++
			if malformed, derr := decode(line, trimmed); derr != nil {
				var abort errAbort
				if errors.As(derr, &abort) {
					return stats, abort.err
				}
				stats.record(line, malformed, derr)
				if opts.Policy == Strict {
					return stats, fmt.Errorf("traceio: line %d: %w", line, derr)
				}
				if opts.MaxErrors > 0 && stats.Skipped() > opts.MaxErrors {
					return stats, fmt.Errorf("%w: %d bad lines (limit %d), first at line %d: %v",
						ErrTooManyBadLines, stats.Skipped(), opts.MaxErrors, stats.Errors[0].Line, stats.Errors[0].Err)
				}
			}
		}
		if rerr != nil {
			if errors.Is(rerr, io.EOF) {
				return stats, nil
			}
			return stats, fmt.Errorf("traceio: read line %d: %w", line, rerr)
		}
		if idle != nil && src.short && br.Buffered() == 0 {
			if err := idle(); err != nil {
				return stats, err
			}
		}
	}
}

// StreamVisits reads JSONL visits until EOF, decoding in batches of up to
// batchSize and passing each batch to fn. The batch slice is reused
// between calls — fn must not retain it. A non-nil error from fn aborts
// the stream and is returned verbatim. batchSize <= 0 uses DefaultBatch.
// Decoding is strict; use StreamVisitsOpts for lenient reads.
func StreamVisits(r io.Reader, batchSize int, fn func(batch []trace.Visit) error) error {
	_, err := StreamVisitsOpts(r, StreamOptions{BatchSize: batchSize}, fn)
	return err
}

// StreamVisitsOpts is StreamVisits with an explicit error policy. Under
// Skip, corrupt or invalid lines are counted in the returned Stats and
// the stream resumes at the next newline; the error is non-nil only when
// the Skip budget (MaxErrors) is exhausted, the callback fails, or the
// underlying reader fails. Stats are returned in every case, including
// on error, so callers can report partial progress; on every return
// Decoded+Malformed+Invalid == Lines.
//
// A batch holds up to BatchSize records: it is handed over early when
// the source has caught up (see the package doc), so a consumer that
// needs fixed cuts must re-cut.
func StreamVisitsOpts(r io.Reader, opts StreamOptions, fn func(batch []trace.Visit) error) (Stats, error) {
	batchSize := opts.BatchSize
	if batchSize <= 0 {
		batchSize = DefaultBatch
	}
	batch := make([]trace.Visit, 0, batchSize)
	emit := func() error {
		if len(batch) == 0 {
			return nil
		}
		if err := fn(batch); err != nil {
			return err
		}
		batch = batch[:0]
		return nil
	}
	var dec visitDecoder
	stats, err := decodeLines(r, opts, func(line int, data []byte) (bool, error) {
		v, malformed, err := dec.decode(data)
		if err != nil {
			return malformed, err
		}
		if batch = append(batch, v); len(batch) == batchSize {
			if err := emit(); err != nil {
				return false, errAbort{err: err}
			}
		}
		return false, nil
	}, emit)
	if err != nil {
		return stats, err
	}
	return stats, emit()
}

// ReadVisits reads JSONL visits until EOF, materializing the whole trace.
// Prefer StreamVisits when the consumer can fold batches incrementally.
func ReadVisits(r io.Reader) ([]trace.Visit, error) {
	out, _, err := ReadVisitsOpts(r, StreamOptions{})
	return out, err
}

// ReadVisitsOpts is ReadVisits with an explicit error policy.
func ReadVisitsOpts(r io.Reader, opts StreamOptions) ([]trace.Visit, Stats, error) {
	var out []trace.Visit
	stats, err := StreamVisitsOpts(r, opts, func(batch []trace.Visit) error {
		out = append(out, batch...)
		return nil
	})
	if err != nil {
		return nil, stats, err
	}
	return out, stats, nil
}

// WriteMessages writes wire messages as JSONL.
func WriteMessages(w io.Writer, msgs []trace.Message) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for i, m := range msgs {
		rec := messageRecord{
			AtUS:      int64(m.At),
			From:      m.From,
			To:        m.To,
			Dir:       m.Dir.String(),
			Class:     m.Class,
			Conn:      m.Conn,
			TxnID:     m.TxnID,
			HopID:     m.HopID,
			ParentHop: m.ParentHop,
			Bytes:     m.Bytes,
		}
		if err := enc.Encode(&rec); err != nil {
			return fmt.Errorf("traceio: write message %d: %w", i, err)
		}
	}
	return bw.Flush()
}

// ReadMessages reads JSONL wire messages until EOF. Decoding is strict;
// use ReadMessagesOpts for lenient reads.
func ReadMessages(r io.Reader) ([]trace.Message, error) {
	out, _, err := ReadMessagesOpts(r, StreamOptions{})
	return out, err
}

// ReadMessagesOpts reads JSONL wire messages until EOF under the given
// error policy, reporting what it skipped.
func ReadMessagesOpts(r io.Reader, opts StreamOptions) ([]trace.Message, Stats, error) {
	var out []trace.Message
	stats, err := decodeLines(r, opts, func(line int, data []byte) (bool, error) {
		var rec messageRecord
		if err := json.Unmarshal(data, &rec); err != nil {
			return true, fmt.Errorf("decode message: %w", err)
		}
		var dir trace.Direction
		switch rec.Dir {
		case "call":
			dir = trace.Call
		case "return":
			dir = trace.Return
		default:
			return false, fmt.Errorf("message has direction %q", rec.Dir)
		}
		out = append(out, trace.Message{
			At:        simnet.Time(rec.AtUS),
			From:      rec.From,
			To:        rec.To,
			Dir:       dir,
			Class:     rec.Class,
			Conn:      rec.Conn,
			TxnID:     rec.TxnID,
			HopID:     rec.HopID,
			ParentHop: rec.ParentHop,
			Bytes:     rec.Bytes,
		})
		return false, nil
	}, nil)
	if err != nil {
		return nil, stats, err
	}
	return out, stats, nil
}
