package traceio

import (
	"encoding/json"
	"errors"
	"fmt"

	"transientbd/internal/simnet"
	"transientbd/internal/trace"
)

// maxInterned caps the per-read string table, so input with unboundedly
// many distinct names cannot grow it: names past the cap are still
// decoded, each into its own string. maxInternLen keeps an entry small.
const (
	maxInterned  = 4096
	maxInternLen = 256
)

// visitFields is one visit line as scanVisit reads it: the string fields
// alias the line.
type visitFields struct {
	server, class                        []byte
	txn, hop, arrive, depart, downstream int64
}

// visitDecoder decodes visit lines for one read, interning server and
// class names across its lines.
type visitDecoder struct {
	intern map[string]string
}

// decode turns one trimmed line into a validated visit. malformed reports
// whether a failure was bad JSON rather than an invalid record.
func (d *visitDecoder) decode(data []byte) (v trace.Visit, malformed bool, err error) {
	var rec visitRecord
	var f visitFields
	if scanVisit(data, &f) {
		rec = visitRecord{
			Server:    d.name(f.server),
			Class:     d.name(f.class),
			TxnID:     f.txn,
			HopID:     f.hop,
			ArriveUS:  f.arrive,
			DepartUS:  f.depart,
			DownstrUS: f.downstream,
		}
	} else if rec, err = unmarshalVisit(data); err != nil {
		return v, true, fmt.Errorf("decode visit: %w", err)
	}
	if rec.Server == "" {
		return v, false, errors.New("visit has no server")
	}
	if rec.DepartUS < rec.ArriveUS {
		return v, false, errors.New("visit departs before arriving")
	}
	return trace.Visit{
		Server:     rec.Server,
		Class:      rec.Class,
		TxnID:      rec.TxnID,
		HopID:      rec.HopID,
		Arrive:     simnet.Time(rec.ArriveUS),
		Depart:     simnet.Time(rec.DepartUS),
		Downstream: simnet.Duration(rec.DownstrUS),
	}, false, nil
}

// unmarshalVisit is the encoding/json fallback, kept out of decode so the
// record it hands to json.Unmarshal does not escape on the fast path.
func unmarshalVisit(data []byte) (visitRecord, error) {
	var rec visitRecord
	err := json.Unmarshal(data, &rec)
	return rec, err
}

// name returns b as a string, shared with earlier equal names of this
// read while the table has room. The lookup does not allocate.
func (d *visitDecoder) name(b []byte) string {
	if len(b) == 0 {
		return ""
	}
	if s, ok := d.intern[string(b)]; ok {
		return s
	}
	s := string(b)
	if len(b) <= maxInternLen && len(d.intern) < maxInterned {
		if d.intern == nil {
			d.intern = make(map[string]string)
		}
		d.intern[s] = s
	}
	return s
}

// scanVisit decodes a canonical visit line into f and reports whether it
// could. It accepts only an object whose keys are exactly the seven
// lowercase schema keys, whose string values are printable ASCII without
// a backslash, whose integers fit in int64, and whose other bytes are
// JSON whitespace; a later duplicate key overrides an earlier one, as in
// encoding/json. On such a line the result equals json.Unmarshal's; on
// any other line it returns false and the caller falls back.
func scanVisit(b []byte, f *visitFields) bool {
	*f = visitFields{}
	i := skipSpace(b, 0)
	if i == len(b) || b[i] != '{' {
		return false
	}
	i = skipSpace(b, i+1)
	if i < len(b) && b[i] == '}' {
		return skipSpace(b, i+1) == len(b)
	}
	for {
		if i == len(b) || b[i] != '"' {
			return false
		}
		key, j, ok := scanString(b, i+1)
		if !ok {
			return false
		}
		if i = skipSpace(b, j); i == len(b) || b[i] != ':' {
			return false
		}
		i = skipSpace(b, i+1)
		switch string(key) {
		case "server":
			f.server, i, ok = scanStringValue(b, i)
		case "class":
			f.class, i, ok = scanStringValue(b, i)
		case "txn":
			f.txn, i, ok = scanInt(b, i)
		case "hop":
			f.hop, i, ok = scanInt(b, i)
		case "arrive_us":
			f.arrive, i, ok = scanInt(b, i)
		case "depart_us":
			f.depart, i, ok = scanInt(b, i)
		case "downstream_us":
			f.downstream, i, ok = scanInt(b, i)
		default:
			return false
		}
		if !ok {
			return false
		}
		if i = skipSpace(b, i); i == len(b) {
			return false
		}
		switch b[i] {
		case ',':
			i = skipSpace(b, i+1)
		case '}':
			return skipSpace(b, i+1) == len(b)
		default:
			return false
		}
	}
}

func skipSpace(b []byte, i int) int {
	for i < len(b) && (b[i] == ' ' || b[i] == '\t' || b[i] == '\r' || b[i] == '\n') {
		i++
	}
	return i
}

// plain marks the bytes a fast-path string may hold: printable ASCII
// other than '"' and '\\'.
var plain = func() (t [256]bool) {
	for c := ' '; c <= '~'; c++ {
		t[c] = c != '"' && c != '\\'
	}
	return t
}()

// scanString reads string content starting just past its opening quote,
// returning the content and the index past the closing quote.
func scanString(b []byte, i int) ([]byte, int, bool) {
	j := i
	for j < len(b) && plain[b[j]] {
		j++
	}
	if j == len(b) || b[j] != '"' {
		return nil, j, false
	}
	return b[i:j], j + 1, true
}

func scanStringValue(b []byte, i int) ([]byte, int, bool) {
	if i == len(b) || b[i] != '"' {
		return nil, i, false
	}
	return scanString(b, i+1)
}

// scanInt reads a JSON integer (-?(0|[1-9][0-9]*)) that fits in int64.
// What may follow it is left to the caller, which accepts only
// whitespace, ',' or '}' — so a fraction or exponent is refused there.
func scanInt(b []byte, i int) (int64, int, bool) {
	neg := i < len(b) && b[i] == '-'
	if neg {
		i++
	}
	start := i
	var u uint64
	for ; i < len(b) && b[i] >= '0' && b[i] <= '9'; i++ {
		if u > (1<<63)/10 {
			return 0, i, false // the next digit overflows either sign
		}
		u = u*10 + uint64(b[i]-'0')
	}
	if n := i - start; n == 0 || (n > 1 && b[start] == '0') {
		return 0, i, false
	}
	if neg {
		if u > 1<<63 {
			return 0, i, false
		}
		return -int64(u), i, true
	}
	if u > 1<<63-1 {
		return 0, i, false
	}
	return int64(u), i, true
}
