package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"sort"

	"transientbd/internal/cause"
	"transientbd/internal/core"
	"transientbd/internal/stream"
)

// The digests below render a result canonically — %v prints every
// float with the fewest digits that read back to the same value — so
// two results digest alike exactly when they are bit-identical. Run
// metadata (wall clocks, queue depths) is left out.

// batchDigest covers the batch report: ranking, every server's
// per-interval series and classification, and the cause verdicts.
func batchDigest(a *core.SystemAnalysis, verdicts []cause.Verdict) string {
	h := sha256.New()
	fmt.Fprintf(h, "ranking %v\n", a.Ranking)
	names := make([]string, 0, len(a.PerServer))
	for n := range a.PerServer {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		s := a.PerServer[n]
		fmt.Fprintf(h, "server %s %v %v\n", s.Server, s.Window, s.Interval)
		fmt.Fprintf(h, "load %v\ntp %v\nrawtp %v\n", s.Load.Values(), s.TP.Values(), s.RawTP.Values())
		fmt.Fprintf(h, "service %v unit %v\n", s.ServiceTimes, s.Unit)
		fmt.Fprintf(h, "nstar %v\nstates %v\npois %v\ncongested %d %v\n",
			s.NStar, s.States, s.POIs, s.CongestedIntervals, s.CongestedFraction)
	}
	writeVerdicts(h, verdicts)
	return hex.EncodeToString(h.Sum(nil))
}

// followDigest covers what the follow and merge modes print: the full
// alert stream, the final snapshot's ranked windows, and the verdicts.
func followDigest(alerts []stream.Alert, snap *stream.Snapshot, verdicts []cause.Verdict) string {
	h := sha256.New()
	for _, a := range alerts {
		fmt.Fprintf(h, "alert %v\n", a)
	}
	fmt.Fprintf(h, "snapshot at %v\n", snap.At)
	for _, r := range snap.Ranking {
		fmt.Fprintf(h, "server %s %v\n", r.Server, *r.OnlineSnapshot)
	}
	writeVerdicts(h, verdicts)
	return hex.EncodeToString(h.Sum(nil))
}

func writeVerdicts(h hash.Hash, vs []cause.Verdict) {
	for _, v := range vs {
		fmt.Fprintf(h, "verdict %v\n", v)
	}
}

// onlineVerdicts runs the cause engine over a snapshot exactly as the
// follow and merge modes do before printing.
func onlineVerdicts(snap *stream.Snapshot) []cause.Verdict {
	ss := make([]cause.Series, 0, len(snap.Ranking))
	for _, r := range snap.Ranking {
		ss = append(ss, cause.FromOnline(r.Server, r.OnlineSnapshot))
	}
	return cause.Attribute(ss, cause.Options{})
}

// batchVerdicts runs the cause engine over a batch analysis exactly as
// tbdetect does (no call graph: the input is a visit trace).
func batchVerdicts(a *core.SystemAnalysis) []cause.Verdict {
	ss := make([]cause.Series, 0, len(a.PerServer))
	for _, s := range a.PerServer {
		ss = append(ss, cause.FromAnalysis(s))
	}
	return cause.Attribute(ss, cause.Options{})
}
