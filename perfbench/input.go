package main

import (
	"bytes"
	"compress/gzip"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"

	"transientbd/internal/cli"
)

// workDir holds everything a run leaves behind: the per-seed input
// cache and the traced runs' span files. It is relative to the
// directory the benchmark runs from (the repository root) and ignored
// by git.
const workDir = ".bench_build/perfbench"

// input is one seed's visit trace as the programs under test receive
// it — JSONL bytes in departure order — plus a per-record index the
// benchmark builds outside the timed region to schedule feeds and to
// locate each interval's sealing record.
type input struct {
	seed    int64
	data    []byte
	sha256  string
	ends    []int   // byte offset just past each record's line
	departs []int64 // departure timestamp, µs of trace time
	server  []int   // index into servers
	servers []string
}

// loadInput returns the seed's trace, generating it with ntiersim's
// own entry point on first use and caching it under workDir.
func loadInput(sp *spec, seed int64) (*input, error) {
	path := filepath.Join(workDir, "inputs", fmt.Sprintf("seed-%d.jsonl.gz", seed))
	data, err := readGzip(path)
	if errors.Is(err, os.ErrNotExist) {
		data, err = generate(sp, seed)
		if err == nil {
			err = writeGzip(path, data)
		}
	}
	if err != nil {
		return nil, fmt.Errorf("input for seed %d: %w", seed, err)
	}
	// Both paths leave slack capacity behind; an exact-size copy keeps
	// the live heap, and with it the collector's heap goal and the
	// measured heap peaks, the same whether the cache hit or missed.
	data = bytes.Clone(data)
	in, err := indexInput(data)
	if err != nil {
		return nil, fmt.Errorf("input for seed %d: %w", seed, err)
	}
	in.seed = seed
	sum := sha256.Sum256(data)
	in.sha256 = hex.EncodeToString(sum[:])
	return in, nil
}

func generate(sp *spec, seed int64) ([]byte, error) {
	var out, diag bytes.Buffer
	args := append(append([]string{}, sp.TraceArgs...), "-seed", strconv.FormatInt(seed, 10), "-out", "-")
	if err := cli.NtierSim(args, &out, &diag); err != nil {
		return nil, fmt.Errorf("ntiersim: %w: %s", err, diag.String())
	}
	return out.Bytes(), nil
}

func readGzip(path string) ([]byte, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	zr, err := gzip.NewReader(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	data, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return data, nil
}

// writeGzip writes the cache file through a temporary name, so a run
// killed mid-write never leaves a truncated input behind.
func writeGzip(path string, data []byte) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	tmp, err := os.CreateTemp(filepath.Dir(path), ".tmp-*")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name())
	zw, err := gzip.NewWriterLevel(tmp, gzip.BestSpeed)
	if err != nil {
		tmp.Close()
		return err
	}
	if _, err := zw.Write(data); err != nil {
		tmp.Close()
		return err
	}
	if err := zw.Close(); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	return os.Rename(tmp.Name(), path)
}

var (
	serverKey = []byte(`"server":"`)
	departKey = []byte(`"depart_us":`)
)

// indexInput finds each record's line end, server and departure with a
// byte scan of the fixed key layout traceio.WriteVisits emits. The
// timed runs decode the same bytes with the real decoder, and every
// check compares its record count against this index.
func indexInput(data []byte) (*input, error) {
	in := &input{data: data}
	ids := map[string]int{}
	var names []string
	for off := 0; off < len(data); {
		nl := bytes.IndexByte(data[off:], '\n')
		if nl < 0 {
			return nil, fmt.Errorf("record at byte %d has no trailing newline", off)
		}
		line := data[off : off+nl]
		off += nl + 1
		if len(bytes.TrimSpace(line)) == 0 {
			continue
		}
		s := bytes.Index(line, serverKey)
		d := bytes.Index(line, departKey)
		if s < 0 || d < 0 {
			return nil, fmt.Errorf("record ending at byte %d lacks server or depart_us", off)
		}
		rest := line[s+len(serverKey):]
		q := bytes.IndexByte(rest, '"')
		if q < 0 {
			return nil, fmt.Errorf("record ending at byte %d: unterminated server", off)
		}
		digits := line[d+len(departKey):]
		n := 0
		for n < len(digits) && digits[n] >= '0' && digits[n] <= '9' {
			n++
		}
		depart, err := strconv.ParseInt(string(digits[:n]), 10, 64)
		if err != nil {
			return nil, fmt.Errorf("record ending at byte %d: depart_us: %w", off, err)
		}
		if k := len(in.departs); k > 0 && depart < in.departs[k-1] {
			return nil, fmt.Errorf("record ending at byte %d departs before its predecessor; the trace must be in departure order", off)
		}
		id, ok := ids[string(rest[:q])]
		if !ok {
			id = len(names)
			ids[string(rest[:q])] = id
			names = append(names, string(rest[:q]))
		}
		in.ends = append(in.ends, off)
		in.departs = append(in.departs, depart)
		in.server = append(in.server, id)
	}
	if len(in.departs) == 0 {
		return nil, errors.New("trace has no records")
	}
	// Renumber servers in name order so node assignment does not depend
	// on which server happens to appear first.
	sorted := append([]string{}, names...)
	sort.Strings(sorted)
	rank := make([]int, len(names))
	for i, n := range names {
		rank[i] = sort.SearchStrings(sorted, n)
	}
	for i := range in.server {
		in.server[i] = rank[in.server[i]]
	}
	in.servers = sorted
	return in, nil
}

// sealIndex returns the first record departing at or after t: the
// record after which an interval ending at t − FlushLag became
// sealable. It returns len(departs) when no record gets there, in
// which case only the end of the feed seals the interval.
func (in *input) sealIndex(t int64) int {
	return sort.Search(len(in.departs), func(i int) bool { return in.departs[i] >= t })
}

// sealOffset is sealIndex as the byte offset just past that record's
// line, or -1 for the end of the feed.
func (in *input) sealOffset(t int64) int {
	if i := in.sealIndex(t); i < len(in.ends) {
		return in.ends[i]
	}
	return -1
}
