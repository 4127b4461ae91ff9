// Command perfbench is the repository's end-to-end benchmark. It feeds
// one generated visit trace — bytes in — through the three real entry
// points, tbdetect batch, tbdetect -follow and agent → merge over
// loopback, and measures the cost and latency of getting alerts out.
// Every run checks its output against an untimed reference before it
// reports a number.
//
//	bash perfbench/run.sh --workload follow --seed 1 --seconds 20 --trace 0
//
// --trace 0 prints the end-to-end metrics; --trace 1 prints the
// per-layer ledger measured with spans around each call into a layer.
// The last line of standard output is always one JSON result object.
package main

import (
	_ "embed"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"
)

//go:embed spec.json
var specJSON []byte

// spec holds the settings fixed once for every run of the benchmark.
type spec struct {
	DefaultSeed      int64    `json:"default_seed"`
	TraceArgs        []string `json:"trace_args"`
	Shards           int      `json:"shards"`
	IntervalMS       int64    `json:"interval_ms"`
	WindowS          int64    `json:"window_s"`
	FlushLagMS       int64    `json:"flush_lag_ms"`
	SetupRepsPerPass int      `json:"setup_reps_per_pass"`
	Paced            struct {
		Speedup        float64 `json:"speedup"`
		Nodes          int     `json:"nodes"`
		PublishEveryMS int64   `json:"publish_every_ms"`
		ScrapeEveryMS  int64   `json:"scrape_every_ms"`
		AlertLimitMS   float64 `json:"alert_limit_ms"`
		AuthKey        string  `json:"auth_key"`
	} `json:"paced"`
	Metrics map[string]metricDoc `json:"metrics"`
}

// metricDoc is the part of a metric's documentation the program uses;
// Kind is "end_to_end" or "per_layer".
type metricDoc struct {
	Kind string `json:"kind"`
	Unit string `json:"unit"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() {
	var (
		name    = flag.String("workload", "", "workload to run: "+strings.Join(workloadNames, " | "))
		seed    = flag.Int64("seed", 0, "trace seed (0 = the spec's default seed)")
		seconds = flag.Int("seconds", 20, "how long the measured loop runs")
		traced  = flag.Int("trace", 0, "0 = end-to-end metrics; 1 = traced run with the per-layer ledger")
	)
	flag.Parse()
	if err := run(*name, *seed, *seconds, *traced == 1); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		var cf *checkFailure
		if errors.As(err, &cf) {
			// A wrong output reports no numbers.
			printResult(result{Correct: false, Attempted: cf.attempted, Failed: cf.failed, Metrics: map[string]metricValue{}})
		}
		os.Exit(1)
	}
}

func run(name string, seed int64, seconds int, traced bool) error {
	var sp spec
	if err := json.Unmarshal(specJSON, &sp); err != nil {
		return fmt.Errorf("spec.json: %w", err)
	}
	if seed == 0 {
		seed = sp.DefaultSeed
	}
	if seconds < 1 {
		return fmt.Errorf("--seconds must be at least 1, got %d", seconds)
	}
	w, err := newWorkload(name, &sp)
	if err != nil {
		return err
	}
	t0 := time.Now()
	in, err := loadInput(&sp, seed)
	if err != nil {
		return err
	}
	fmt.Printf("env nproc=%d gomaxprocs=%d go=%s os=%s/%s\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), runtime.GOOS, runtime.GOARCH)
	fmt.Printf("input seed=%d sha256=%s records=%d bytes=%d\n", seed, in.sha256, len(in.departs), len(in.data))
	t1 := time.Now()
	if err := w.prepare(in); err != nil {
		return fmt.Errorf("%s: prepare: %w", name, err)
	}
	fmt.Printf("untimed input_s=%.2f reference_s=%.2f\n", t1.Sub(t0).Seconds(), time.Since(t1).Seconds())
	kind := "end_to_end"
	var res result
	if traced {
		kind = "per_layer"
		res, err = runTraced(&sp, w, seconds, name, seed)
	} else {
		res, err = runEndToEnd(&sp, w, seconds)
	}
	if err != nil {
		return err
	}
	if err := checkMetricSet(&sp, kind, res.Metrics); err != nil {
		return err
	}
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := res.Metrics[n]
		fmt.Printf("metric %-40s %14.6g %s\n", n, m.Value, m.Unit)
	}
	printResult(res)
	return nil
}

// checkMetricSet makes the printed metrics exactly the spec's set of
// the given kind, each finite and in the spec's unit.
func checkMetricSet(sp *spec, kind string, got map[string]metricValue) error {
	for n, doc := range sp.Metrics {
		if doc.Kind != kind {
			continue
		}
		m, ok := got[n]
		if !ok {
			return fmt.Errorf("metric %s missing from the result", n)
		}
		if m.Unit != doc.Unit {
			return fmt.Errorf("metric %s: unit %q, spec says %q", n, m.Unit, doc.Unit)
		}
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			return fmt.Errorf("metric %s is not finite", n)
		}
	}
	for n := range got {
		if doc, ok := sp.Metrics[n]; !ok || doc.Kind != kind {
			return fmt.Errorf("metric %s is not a %s metric in spec.json", n, kind)
		}
	}
	return nil
}

func printResult(res result) {
	b, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: encode result:", err)
		os.Exit(1)
	}
	fmt.Println(string(b))
}

// checkFailure is an output that disagrees with its reference, or a
// run that lost records: the run fails and reports no numbers.
type checkFailure struct {
	msg               string
	attempted, failed int64
}

func (c *checkFailure) Error() string { return "output check failed: " + c.msg }
