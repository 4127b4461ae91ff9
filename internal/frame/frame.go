// Package frame is the one definition of the length + CRC-32 record
// framing shared by the wire protocol (internal/wire), the agent's
// write-ahead log (internal/wal) and the frame-aware chaos proxy
// (internal/chaos):
//
//	[4 bytes big-endian body length] [body] [4 bytes big-endian CRC-32 (IEEE) over body]
//
// The length covers the body only, and must lie in [1, MaxSize]: no
// record type has an empty body, and the cap keeps a corrupt or hostile
// length prefix from making a reader allocate unbounded memory.
package frame

import (
	"encoding/binary"
	"errors"
	"hash/crc32"
	"io"
)

// MaxSize bounds a frame body. It caps a wire batch at roughly 16k
// visits — far above any sane batch size.
const MaxSize = 1 << 20

// Overhead is the bytes a frame adds around its body: the length
// prefix and the CRC.
const Overhead = 8

// ErrTooBig reports a body length of zero or beyond MaxSize.
var ErrTooBig = errors.New("frame: body length outside [1, MaxSize]")

// ErrBadCRC reports a frame whose checksum does not match its body.
var ErrBadCRC = errors.New("frame: CRC mismatch")

// Append appends body to dst as one sealed frame.
func Append(dst, body []byte) ([]byte, error) {
	if len(body) == 0 || len(body) > MaxSize {
		return dst, ErrTooBig
	}
	dst = binary.BigEndian.AppendUint32(dst, uint32(len(body)))
	dst = append(dst, body...)
	return binary.BigEndian.AppendUint32(dst, crc32.ChecksumIEEE(body)), nil
}

// Read reads one frame from r and returns its body, which reuses buf's
// storage (growing it when too small). On error the returned slice is
// empty but keeps that storage, so a caller that always passes the
// previous result back in reads without allocating. io.EOF is returned
// only at a clean frame boundary; a frame cut short is
// io.ErrUnexpectedEOF. A length prefix is checked against MaxSize
// before anything is allocated.
func Read(r io.Reader, buf []byte) ([]byte, error) {
	// The length prefix is read into buf itself (a local array would
	// escape through the io.Reader call and allocate on every frame).
	if cap(buf) < 4 {
		buf = make([]byte, 4)
	}
	if _, err := io.ReadFull(r, buf[:4]); err != nil {
		return buf[:0], err
	}
	n := int(binary.BigEndian.Uint32(buf[:4]))
	if n < 1 || n > MaxSize {
		return buf[:0], ErrTooBig
	}
	if cap(buf) < n+4 {
		buf = make([]byte, n+4)
	}
	buf = buf[:n+4] // body + CRC
	if _, err := io.ReadFull(r, buf); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return buf[:0], err
	}
	if binary.BigEndian.Uint32(buf[n:]) != crc32.ChecksumIEEE(buf[:n]) {
		return buf[:0], ErrBadCRC
	}
	return buf[:n], nil
}
