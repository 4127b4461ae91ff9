package cli

import (
	"bytes"
	"io"
	"net/http"
	"os"
	"regexp"
	"strings"
	"testing"
	"time"
)

// TestFollowIdleFeed: records already written to a live feed must reach
// the runtime, /metrics and /report while the writer idles with the pipe
// open, and a stop must be honoured without waiting for more input.
func TestFollowIdleFeed(t *testing.T) {
	data, err := os.ReadFile(genTrace(t))
	if err != nil {
		t.Fatal(err)
	}
	const lines = 6000
	cut := 0
	for i := 0; i < lines; i++ {
		n := bytes.IndexByte(data[cut:], '\n')
		if n < 0 {
			t.Fatalf("trace has fewer than %d lines", lines)
		}
		cut += n + 1
	}

	pr, pw := io.Pipe()
	defer pw.Close()
	go pw.Write(data[:cut]) //nolint:errcheck // the follow run drains it

	addrCh := make(chan string, 1)
	stop := make(chan struct{})
	var stdout, stderrBuf bytes.Buffer
	runDone := make(chan error, 1)
	go func() {
		runDone <- runFollow(pr, &stdout, &stderrBuf, followOpts{
			interval:     50 * time.Millisecond,
			window:       2 * time.Minute,
			flushLag:     time.Second,
			shards:       2,
			listen:       "127.0.0.1:0",
			publishEvery: 20 * time.Millisecond,
			listenReady:  func(addr string) { addrCh <- addr },
			stop:         stop,
		})
	}()
	var base string
	select {
	case addr := <-addrCh:
		base = "http://" + addr
	case err := <-runDone:
		t.Fatalf("runFollow exited before listening: %v\nstderr: %s", err, stderrBuf.String())
	case <-time.After(15 * time.Second):
		t.Fatal("listener never came up")
	}

	ingested := regexp.MustCompile(`(?m)^tbdetect_records_ingested_total (\d+)$`)
	var last string
	pollUntil(t, "every written record in /metrics", 10*time.Second, func() bool {
		code, body := httpGetBody(t, base+"/metrics")
		if m := ingested.FindStringSubmatch(body); code == http.StatusOK && m != nil {
			last = m[1]
		}
		return last == "6000"
	})
	pollUntil(t, "a populated /report snapshot", 10*time.Second, func() bool {
		code, body := httpGetBody(t, base+"/report")
		return code == http.StatusOK && strings.Contains(body, `"server": "`)
	})

	close(stop)
	select {
	case err := <-runDone:
		if err != nil {
			t.Fatalf("runFollow: %v\nstderr: %s", err, stderrBuf.String())
		}
	case <-time.After(10 * time.Second):
		t.Fatal("runFollow ignored the stop while its feed was idle")
	}
	if !strings.Contains(stderrBuf.String(), "interrupted") || !strings.Contains(stdout.String(), "final snapshot") {
		t.Errorf("no graceful stop:\nstdout: %s\nstderr: %s", stdout.String(), stderrBuf.String())
	}
}
