package experiments

import (
	"fmt"

	"transientbd/internal/cause"
	"transientbd/internal/core"
	"transientbd/internal/ntier"
	"transientbd/internal/simnet"
	"transientbd/internal/trace"
)

// NoisyNeighborResult demonstrates the method's generality on a third
// transient-bottleneck cause: periodic CPU theft by a co-located VM.
// Neither GC nor SpeedStep is active; only one of the two identical MySQL
// hosts suffers the antagonist — and the per-server analysis must
// localize it.
type NoisyNeighborResult struct {
	// Victim and Twin are the analyses of mysql-1 (with antagonist) and
	// mysql-2 (without).
	Victim, Twin *core.Analysis
	// Ranking is the worst-first raw congestion ranking. In a closed
	// n-tier system the victim's freezes back requests up into every
	// upstream tier, so the raw ranking flags the whole call chain.
	Ranking []core.ServerReport
	// RootCauses are the attribution engine's verdicts, with congestion
	// that a congested downstream dependency explains discounted (call
	// graph derived from the wire trace); the victim must lead here.
	RootCauses []cause.Verdict
	// VictimUtil and TwinUtil are window-average CPU utilizations — the
	// coarse view, which shows elevated-but-unsaturated usage.
	VictimUtil, TwinUtil float64
}

// runNoisyNeighbor simulates the "noisy-neighbor" battery preset — WL
// 7,000 with a full-core hog on mysql-1 for 300 ms every 3 s — with the
// concurrent (JDK 1.6) Tomcat collector.
func runNoisyNeighbor(opts RunOpts) (*ntier.Result, error) {
	cfg, err := ntier.ScenarioPreset("noisy-neighbor", opts.Seed, opts.duration(), opts.ramp())
	if err != nil {
		return nil, err
	}
	cfg.AppCollector = 2
	sys, err := ntier.Build(cfg)
	if err != nil {
		return nil, err
	}
	return sys.Run()
}

// NoisyNeighbor runs WL 7,000 with a periodic full-core hog on mysql-1.
// Client bursts are disabled so the antagonist is the only transient
// cause — a controlled experiment isolating the localization question.
func NoisyNeighbor(opts RunOpts) (*NoisyNeighborResult, error) {
	res, err := runNoisyNeighbor(opts)
	if err != nil {
		return nil, fmt.Errorf("noisy neighbor: %w", err)
	}
	victim, err := analyzeInstance(res, "mysql-1", 50*simnet.Millisecond)
	if err != nil {
		return nil, err
	}
	twin, err := analyzeInstance(res, "mysql-2", 50*simnet.Millisecond)
	if err != nil {
		return nil, err
	}
	w := core.Window{Start: res.WindowStart, End: res.WindowEnd}
	sysA, err := core.AnalyzeSystem(res.Visits, w, core.Options{Interval: 50 * simnet.Millisecond})
	if err != nil {
		return nil, err
	}
	return &NoisyNeighborResult{
		Victim:     victim,
		Twin:       twin,
		Ranking:    sysA.Ranking,
		RootCauses: attribute(sysA, trace.CallGraph(res.Messages)),
		VictimUtil: res.Utilization["mysql-1"],
		TwinUtil:   res.Utilization["mysql-2"],
	}, nil
}

// Table renders the localization result.
func (r *NoisyNeighborResult) Table() *Table {
	t := &Table{
		Title:  "Extension: noisy-neighbor CPU theft on mysql-1 (WL 7,000, no GC/SpeedStep)",
		Header: []string{"Metric", "mysql-1 (victim)", "mysql-2 (twin)"},
	}
	t.AddRow("congested fraction",
		fmt.Sprintf("%.3f", r.Victim.CongestedFraction),
		fmt.Sprintf("%.3f", r.Twin.CongestedFraction))
	t.AddRow("POIs", len(r.Victim.POIs), len(r.Twin.POIs))
	t.AddRow("window-avg CPU",
		fmt.Sprintf("%.1f%%", 100*r.VictimUtil),
		fmt.Sprintf("%.1f%%", 100*r.TwinUtil))
	worst := "-"
	if len(r.Ranking) > 0 {
		worst = r.Ranking[0].Server
	}
	rootCause, confidence := "-", ""
	if len(r.RootCauses) > 0 {
		top := r.RootCauses[0]
		rootCause = fmt.Sprintf("%s, score %.3f", verdictLabel(top.Kind, top.Server), top.Score)
		confidence = fmt.Sprintf("(confidence %.2f)", top.Confidence)
	}
	t.Rows = append(t.Rows, []string{"raw ranking blames", worst, "(whole chain backs up)"})
	t.Rows = append(t.Rows, []string{"root-cause attribution", rootCause, confidence})
	return t
}
