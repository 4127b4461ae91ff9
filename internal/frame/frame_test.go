package frame_test

import (
	"bytes"
	"errors"
	"io"
	"os"
	"path/filepath"
	"testing"

	"transientbd/internal/frame"
	"transientbd/internal/trace"
	"transientbd/internal/wal"
	"transientbd/internal/wire"
)

// pinVisits is the batch behind the pinned bytes below.
var pinVisits = []trace.Visit{
	{Server: "mysql-1", Class: "q", TxnID: 42, HopID: 3, Arrive: 1000, Depart: 3500},
	{Server: "tomcat-1", Class: "ViewItem", TxnID: 42, HopID: 2, Arrive: 900, Depart: 3700, Downstream: 2500},
}

// pinnedWire is WriteBatch(Batch{Seq: 7, Visits: pinVisits}) exactly as
// agents already in the field put it on the network.
var pinnedWire = []byte{
	0x00, 0x00, 0x00, 0x2e, 0x03, 0x07, 0x02, 0x07, 0x6d, 0x79, 0x73, 0x71,
	0x6c, 0x2d, 0x31, 0x01, 0x71, 0x54, 0x06, 0xd0, 0x0f, 0xd8, 0x36, 0x00,
	0x08, 0x74, 0x6f, 0x6d, 0x63, 0x61, 0x74, 0x2d, 0x31, 0x08, 0x56, 0x69,
	0x65, 0x77, 0x49, 0x74, 0x65, 0x6d, 0x54, 0x04, 0x88, 0x0e, 0xe8, 0x39,
	0x88, 0x27, 0xdd, 0xc7, 0xa1, 0x07,
}

// pinnedWAL is the segment file after Append(7, AppendVisits(pinVisits))
// on a fresh log, exactly as logs already on disk hold it.
var pinnedWAL = []byte{
	0x00, 0x00, 0x00, 0x2d, 0x07, 0x02, 0x07, 0x6d, 0x79, 0x73, 0x71, 0x6c,
	0x2d, 0x31, 0x01, 0x71, 0x54, 0x06, 0xd0, 0x0f, 0xd8, 0x36, 0x00, 0x08,
	0x74, 0x6f, 0x6d, 0x63, 0x61, 0x74, 0x2d, 0x31, 0x08, 0x56, 0x69, 0x65,
	0x77, 0x49, 0x74, 0x65, 0x6d, 0x54, 0x04, 0x88, 0x0e, 0xe8, 0x39, 0x88,
	0x27, 0x98, 0x62, 0x92, 0xfd,
}

// TestPinnedBytes holds the wire and WAL writers to the bytes they wrote
// before the framing moved into this package, and reads both back.
func TestPinnedBytes(t *testing.T) {
	var buf bytes.Buffer
	w := wire.NewWriter(&buf)
	if err := w.WriteBatch(wire.Batch{Seq: 7, Visits: pinVisits}); err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), pinnedWire) {
		t.Errorf("wire frame changed:\n got %#v\nwant %#v", buf.Bytes(), pinnedWire)
	}
	f, err := wire.NewReader(bytes.NewReader(pinnedWire)).Read()
	if err != nil || f.Type != wire.TypeBatch || f.Batch.Seq != 7 || len(f.Batch.Visits) != 2 {
		t.Errorf("pinned wire frame decodes to %+v, %v", f, err)
	}

	dir := t.TempDir()
	l, _, err := wal.Open(wal.Options{Dir: dir, NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Append(7, wire.AppendVisits(nil, pinVisits)); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	seg := filepath.Join(dir, "0000000000000000000007.seg")
	raw, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(raw, pinnedWAL) {
		t.Errorf("WAL record changed:\n got %#v\nwant %#v", raw, pinnedWAL)
	}
	l, rec, err := wal.Open(wal.Options{Dir: dir, NoSync: true})
	if err != nil || rec.Records != 1 || rec.LastSeq != 7 {
		t.Fatalf("reopen pinned log: %+v, %v", rec, err)
	}
	l.Close()
}

// TestAppendRefusesOversize: a body past the cap is refused at the
// writer rather than sealed into a frame every reader rejects.
func TestAppendRefusesOversize(t *testing.T) {
	if _, err := frame.Append(nil, make([]byte, frame.MaxSize+1)); !errors.Is(err, frame.ErrTooBig) {
		t.Errorf("Append over the cap: got %v, want ErrTooBig", err)
	}
}

// FuzzFrame reads frames back to back from arbitrary bytes. It must
// never panic, never hold more than one capped frame, stop with one of
// the documented errors (io.EOF only on a frame boundary), and every
// body it accepts must re-seal to exactly the bytes it was read from.
func FuzzFrame(f *testing.F) {
	f.Add(pinnedWire)
	f.Add(pinnedWAL)
	f.Add(append(append([]byte(nil), pinnedWAL...), pinnedWire...))
	f.Add(pinnedWire[:len(pinnedWire)-3])
	f.Add([]byte{0xff, 0xff, 0xff, 0xff})
	f.Fuzz(func(t *testing.T, data []byte) {
		r := bytes.NewReader(data)
		var buf []byte
		off := 0
		for {
			var err error
			buf, err = frame.Read(r, buf)
			if cap(buf) > frame.MaxSize+4 {
				t.Fatalf("buffer grew to %d bytes, past the cap", cap(buf))
			}
			if err != nil {
				switch {
				case err == io.EOF:
					if off != len(data) {
						t.Fatalf("io.EOF at offset %d of %d", off, len(data))
					}
				case err == io.ErrUnexpectedEOF, errors.Is(err, frame.ErrTooBig), errors.Is(err, frame.ErrBadCRC):
				default:
					t.Fatalf("undocumented error %v", err)
				}
				return
			}
			sealed, err := frame.Append(nil, buf)
			if err != nil {
				t.Fatalf("accepted body does not re-seal: %v", err)
			}
			if !bytes.Equal(sealed, data[off:off+len(sealed)]) {
				t.Fatalf("re-sealed frame differs at offset %d", off)
			}
			off += len(sealed)
		}
	})
}
