package traceio

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"reflect"
	"strings"
	"testing"
	"testing/iotest"

	"transientbd/internal/simnet"
	"transientbd/internal/trace"
)

// refDecode is the encoding/json reading of one trimmed visit line, the
// specification the fast path must reproduce.
func refDecode(data []byte) (trace.Visit, bool, error) {
	var rec visitRecord
	if err := json.Unmarshal(data, &rec); err != nil {
		return trace.Visit{}, true, fmt.Errorf("decode visit: %w", err)
	}
	if rec.Server == "" {
		return trace.Visit{}, false, errors.New("visit has no server")
	}
	if rec.DepartUS < rec.ArriveUS {
		return trace.Visit{}, false, errors.New("visit departs before arriving")
	}
	return trace.Visit{
		Server: rec.Server, Class: rec.Class, TxnID: rec.TxnID, HopID: rec.HopID,
		Arrive: simnet.Time(rec.ArriveUS), Depart: simnet.Time(rec.DepartUS),
		Downstream: simnet.Duration(rec.DownstrUS),
	}, false, nil
}

// refStream is a reference StreamVisitsOpts: encoding/json on every
// line, read with ReadBytes, batches cut only at batchSize and EOF. It
// returns every valid record decoded before it stopped (all) and the ones
// its batch cuts handed over (delivered).
func refStream(data []byte, opts StreamOptions, batchSize int) (all, delivered []trace.Visit, stats Stats, err error) {
	defer func() { stats.Decoded = stats.Lines - stats.Skipped() }()
	br := bufio.NewReader(bytes.NewReader(data))
	var batch []trace.Visit
	for line := 1; ; line++ {
		raw, rerr := br.ReadBytes('\n')
		if trimmed := bytes.TrimSpace(raw); len(trimmed) > 0 {
			stats.Lines++
			v, malformed, derr := refDecode(trimmed)
			if derr == nil {
				all = append(all, v)
				if batch = append(batch, v); len(batch) == batchSize {
					delivered, batch = append(delivered, batch...), nil
				}
			} else {
				if malformed {
					stats.Malformed++
				} else {
					stats.Invalid++
				}
				if len(stats.Errors) < maxKeptErrors {
					stats.Errors = append(stats.Errors, LineError{Line: line, Err: derr})
				}
				if opts.Policy == Strict {
					return all, delivered, stats, fmt.Errorf("traceio: line %d: %w", line, derr)
				}
				if opts.MaxErrors > 0 && stats.Skipped() > opts.MaxErrors {
					return all, delivered, stats, fmt.Errorf("%w: %d bad lines (limit %d), first at line %d: %v",
						ErrTooManyBadLines, stats.Skipped(), opts.MaxErrors, stats.Errors[0].Line, stats.Errors[0].Err)
				}
			}
		}
		if rerr != nil {
			return all, append(delivered, batch...), stats, nil
		}
	}
}

// checkAgainstRef streams data through StreamVisitsOpts under opts, via a
// whole reader and via one-byte and half reads, and compares the visits,
// Stats (Errors included) and error with refStream. A whole reader must
// cut exactly like the reference; the split readers may hand batches
// over early, so a failed read may deliver more of the reference's
// records, never others.
func checkAgainstRef(t *testing.T, data []byte, opts StreamOptions) {
	t.Helper()
	all, delivered, wantStats, wantErr := refStream(data, opts, opts.BatchSize)
	readers := []struct {
		name string
		wrap func(io.Reader) io.Reader
	}{
		{"whole", func(r io.Reader) io.Reader { return r }},
		{"one-byte", iotest.OneByteReader},
		{"half", iotest.HalfReader},
	}
	for _, rd := range readers {
		var got []trace.Visit
		stats, err := StreamVisitsOpts(rd.wrap(bytes.NewReader(data)), opts, func(batch []trace.Visit) error {
			got = append(got, batch...)
			return nil
		})
		if fmt.Sprint(err) != fmt.Sprint(wantErr) {
			t.Fatalf("%s, %+v: err %v, reference %v", rd.name, opts, err, wantErr)
		}
		if !reflect.DeepEqual(stats, wantStats) {
			t.Fatalf("%s, %+v: stats %+v, reference %+v", rd.name, opts, stats, wantStats)
		}
		switch {
		case rd.name == "whole" || err == nil:
			if !visitsEqual(got, delivered) {
				t.Fatalf("%s, %+v: visits %+v, reference %+v", rd.name, opts, got, delivered)
			}
		case len(got) < len(delivered) || len(got) > len(all) || !visitsEqual(got, all[:len(got)]):
			t.Fatalf("%s, %+v: visits %+v, not between reference %+v and %+v", rd.name, opts, got, delivered, all)
		}
	}
}

func visitsEqual(a, b []trace.Visit) bool {
	return len(a) == len(b) && (len(a) == 0 || reflect.DeepEqual(a, b))
}

// FuzzVisitFastPath is the differential check of the fast decoder
// against encoding/json. Per line, scanVisit either declines or agrees
// with json.Unmarshal field for field. Per stream, StreamVisitsOpts
// matches the encoding/json reference reader under both policies and
// across read boundaries.
func FuzzVisitFastPath(f *testing.F) {
	for _, s := range []string{
		`{"server":"mysql-1","class":"q1","txn":7,"hop":3,"arrive_us":1000,"depart_us":2500,"downstream_us":200}`,
		`{ "server" : "s" , "arrive_us" : -0 , "depart_us" : 9223372036854775807 }`,
		`{"server":"s","arrive_us":-9223372036854775808,"depart_us":0}`,
		`{"server":"s","arrive_us":9223372036854775808,"depart_us":0}`,
		`{"server":"s","arrive_us":1.0,"depart_us":2e3}`,
		`{"server":"s","arrive_us":01,"depart_us":2}`,
		`{"server":"sA","Server":"t","arrive_us":1,"depart_us":2}`,
		`{"server":"s","server":"t","class":null,"arrive_us":1,"depart_us":2}`,
		`{"server":"s","extra":1,"arrive_us":1,"depart_us":2}`,
		`{"server":"é","arrive_us":1,"depart_us":2}`,
		`{"server":"a\u0041","arrive_us":1,"depart_us":2}`,
		`{"server":"s","class":"q\"1","arrive_us":1,"depart_us":2}`,
		`{"server":"s","arrive_us":"1","depart_us":2}`,
		`{"server":1,"arrive_us":1,"depart_us":2,}`,
		`{}`,
		"{\"server\":\"a\"}\n\n{\"server\":\"a\",\"arrive_us\":3,\"depart_us\":1}\n{bad\n" +
			`{"server":"b","arrive_us":1,"depart_us":2}`,
		"[]\n\"x\"\n1\n{\"server\":\"s\"} x\n{\"server\":\"s\"}\t\r\n",
	} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var fields visitFields
		for _, line := range bytes.Split(data, []byte("\n")) {
			line = bytes.TrimSpace(line)
			if !scanVisit(line, &fields) {
				continue
			}
			var rec visitRecord
			if err := json.Unmarshal(line, &rec); err != nil {
				t.Fatalf("fast path accepted %q, encoding/json refused it: %v", line, err)
			}
			got := visitRecord{
				Server: string(fields.server), Class: string(fields.class),
				TxnID: fields.txn, HopID: fields.hop,
				ArriveUS: fields.arrive, DepartUS: fields.depart, DownstrUS: fields.downstream,
			}
			if got != rec {
				t.Fatalf("line %q: fast path %+v, encoding/json %+v", line, got, rec)
			}
		}
		for _, opts := range []StreamOptions{
			{Policy: Strict, BatchSize: 3},
			{Policy: Skip, BatchSize: 3},
			{Policy: Skip, MaxErrors: 2, BatchSize: 3},
		} {
			checkAgainstRef(t, data, opts)
		}
	})
}

// canonicalLines renders n canonical visit lines over the given server
// names, as WriteVisits emits them.
func canonicalLines(t testing.TB, n int, servers []string) []byte {
	t.Helper()
	vs := make([]trace.Visit, n)
	for i := range vs {
		arrive := simnet.Time(i * 1000)
		vs[i] = trace.Visit{
			Server: servers[i%len(servers)], Class: fmt.Sprintf("c%d", i%3),
			TxnID: int64(i), HopID: int64(i % 5),
			Arrive: arrive, Depart: arrive + simnet.Time(100+i%700), Downstream: simnet.Duration(i % 50),
		}
	}
	var buf bytes.Buffer
	if err := WriteVisits(&buf, vs); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// Steady-state decoding of canonical lines allocates nothing per record:
// a call's allocations (buffers, the batch, interned names) do not grow
// with the number of lines.
func TestStreamVisitsAllocBudget(t *testing.T) {
	servers := []string{"apache-1", "tomcat-1", "cjdbc-1", "mysql-1"}
	allocs := func(n int) float64 {
		data := canonicalLines(t, n, servers)
		return testing.AllocsPerRun(5, func() {
			if _, err := StreamVisitsOpts(bytes.NewReader(data), StreamOptions{BatchSize: 256}, func([]trace.Visit) error {
				return nil
			}); err != nil {
				t.Fatal(err)
			}
		})
	}
	small, large := allocs(1000), allocs(5000)
	if large > small {
		t.Fatalf("allocations per call grew with the line count: %v for 1000 lines, %v for 5000", small, large)
	}
}

// Hostile input with ever-new names cannot grow the intern table past its
// cap, and the names past the cap still decode exactly.
func TestInternTableCapped(t *testing.T) {
	const n = 100_000
	servers := make([]string, n)
	for i := range servers {
		servers[i] = fmt.Sprintf("host-%06d", i)
	}
	data := canonicalLines(t, n, servers)
	var d visitDecoder
	for i, line := range bytes.Split(bytes.TrimSuffix(data, []byte("\n")), []byte("\n")) {
		got, _, err := d.decode(line)
		want, _, werr := refDecode(line)
		if fmt.Sprint(err) != fmt.Sprint(werr) || got != want {
			t.Fatalf("line %d: decoded %+v (%v), encoding/json %+v (%v)", i+1, got, err, want, werr)
		}
	}
	if len(d.intern) != maxInterned {
		t.Fatalf("intern table holds %d names, cap %d", len(d.intern), maxInterned)
	}
	checkAgainstRef(t, data, StreamOptions{Policy: Strict, BatchSize: DefaultBatch})
}

// A line longer than the read buffer is joined and decoded like any
// other, under both policies, in the middle of the input and as a final
// line without a newline.
func TestStreamVisitsLongLines(t *testing.T) {
	long := strings.Repeat("x", 70<<10)
	pad := strings.Repeat(" ", 70<<10)
	lines := []string{
		`{"server":"` + long + `","arrive_us":1,"depart_us":2}`,
		`{"server":"s",` + pad + `"arrive_us":1,"depart_us":2}`,
		`{"server":"` + long + `A","arrive_us":1,"depart_us":2}`,
		`{"server":"s","arrive_us":1,"depart_us":2` + pad + `x}`,
	}
	for i, line := range lines {
		for _, in := range []string{
			visitLine1 + "\n" + line + "\n" + visitLine2 + "\n",
			visitLine1 + "\n" + line,
		} {
			for _, policy := range []Policy{Strict, Skip} {
				opts := StreamOptions{Policy: policy, BatchSize: 2}
				checkAgainstRef(t, []byte(in), opts)
				_, stats, _ := collectOpts(t, in, opts)
				if wantBad := i == 3; (stats.Malformed == 1) != wantBad || stats.Lines < 2 {
					t.Errorf("line %d, policy %v: stats %+v", i, policy, stats)
				}
			}
		}
	}
}

// A source that has caught up gets its pending batch handed over before
// the next read blocks (whole readers keep their cuts: see
// TestStreamVisitsBatches).
func TestStreamVisitsIdleHandOver(t *testing.T) {
	data := canonicalLines(t, 10, []string{"s"})
	pr, pw := io.Pipe()
	go pw.Write(data) //nolint:errcheck // the read below drains it
	got := make(chan int)
	done := make(chan error, 1)
	go func() {
		_, err := StreamVisitsOpts(pr, StreamOptions{BatchSize: 100}, func(batch []trace.Visit) error {
			got <- len(batch)
			return nil
		})
		done <- err
	}()
	if n := <-got; n != 10 {
		t.Fatalf("handed over %d records while the writer idled, want 10", n)
	}
	pw.Close()
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}

func BenchmarkStreamVisits(b *testing.B) {
	data := canonicalLines(b, 20000, []string{"apache-1", "tomcat-1", "tomcat-2", "cjdbc-1", "mysql-1", "mysql-2"})
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := StreamVisitsOpts(bytes.NewReader(data), StreamOptions{}, func([]trace.Visit) error {
			return nil
		}); err != nil {
			b.Fatal(err)
		}
	}
}
