package cause

import (
	"reflect"
	"testing"

	"transientbd/internal/simnet"
)

// synthSeries builds a deterministic two-server feed: mysql-1 congests
// periodically (every 8th stretch of intervals, the antagonist shape)
// while tomcat-1 stays clean. Enough intervals for every fingerprint to
// engage.
func synthSeries(start simnet.Time) []Series {
	const n = 96
	iv := 50 * simnet.Millisecond
	hot := Series{
		Server:    "mysql-1",
		Start:     start,
		Interval:  iv,
		Load:      make([]float64, n),
		TP:        make([]float64, n),
		Congested: make([]bool, n),
		POI:       make([]bool, n),
		NStar:     120,
		TPMax:     2400,
	}
	cold := Series{
		Server:   "tomcat-1",
		Start:    start,
		Interval: iv,
		Load:     make([]float64, n),
		TP:       make([]float64, n),
		NStar:    400,
		TPMax:    1300,
	}
	cold.Congested = make([]bool, n)
	cold.POI = make([]bool, n)
	for i := 0; i < n; i++ {
		hot.Load[i] = 60
		hot.TP[i] = 2300
		if i%8 < 3 {
			hot.Load[i] = 180
			hot.TP[i] = 900
			hot.Congested[i] = true
		}
		cold.Load[i] = 120
		cold.TP[i] = 1200
	}
	hot.POI[8] = true
	return []Series{hot, cold}
}

// TestAttributeDeterministic asserts the ranking is a pure function of
// its input: two calls over the same feed — one with the server order
// reversed — must produce deep-equal verdict lists.
func TestAttributeDeterministic(t *testing.T) {
	a := Attribute(synthSeries(0), Options{})
	if len(a) == 0 {
		t.Fatal("synthetic feed produced no verdicts")
	}
	b := Attribute(synthSeries(0), Options{})
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("verdicts differ across identical calls:\n%v\nvs\n%v", a, b)
	}
	rev := synthSeries(0)
	rev[0], rev[1] = rev[1], rev[0]
	c := Attribute(rev, Options{})
	if !reflect.DeepEqual(a, c) {
		t.Fatalf("verdicts depend on input order:\n%v\nvs\n%v", a, c)
	}
}

// TestAttributeTimeShiftInvariant asserts verdicts depend only on the
// shape of the feed, not on where it sits on the clock: shifting every
// series start by a uniform offset must not change a single field
// (Evidence included — it is documented as free of absolute timestamps).
func TestAttributeTimeShiftInvariant(t *testing.T) {
	base := Attribute(synthSeries(0), Options{})
	if len(base) == 0 {
		t.Fatal("synthetic feed produced no verdicts")
	}
	for _, shift := range []simnet.Time{simnet.Time(simnet.Second), simnet.Time(simnet.Minute), simnet.Time(90 * simnet.Minute)} {
		shifted := Attribute(synthSeries(shift), Options{})
		if !reflect.DeepEqual(base, shifted) {
			t.Fatalf("shift %v changed verdicts:\n%v\nvs\n%v", shift, base, shifted)
		}
	}
}

// TestAttributeDownstreamDiscount covers the mirror-effect discount: a
// caller congested exactly when its callee is gets its score cut below
// the callee's, while a server without dependencies, or whose only
// dependency is absent from the feed, keeps its undiscounted score.
func TestAttributeDownstreamDiscount(t *testing.T) {
	// app and db congest in lockstep, so without topology they tie.
	chain := func() []Series {
		db := synthSeries(0)[0]
		db.Server = "db"
		app := db
		app.Server = "app"
		return []Series{app, db}
	}
	topScores := func(vs []Verdict) map[string]float64 {
		top := make(map[string]float64)
		for _, v := range vs {
			if _, ok := top[v.Server]; !ok {
				top[v.Server] = v.Score
			}
		}
		return top
	}
	base := topScores(Attribute(chain(), Options{}))
	if base["app"] == 0 || base["app"] != base["db"] {
		t.Fatalf("lockstep feed without topology: scores %v, want an equal nonzero tie", base)
	}
	for _, c := range []struct {
		name       string
		downstream map[string][]string
		discounted bool
	}{
		{"blames downstream", map[string][]string{"app": {"db"}}, true},
		{"no dependencies", map[string][]string{"db": nil}, false},
		{"unknown dependency ignored", map[string][]string{"app": {"ghost"}}, false},
	} {
		t.Run(c.name, func(t *testing.T) {
			vs := Attribute(chain(), Options{Downstream: c.downstream})
			got := topScores(vs)
			if got["db"] != base["db"] {
				t.Errorf("db score %.3f, want undiscounted %.3f", got["db"], base["db"])
			}
			if !c.discounted {
				if got["app"] != base["app"] {
					t.Errorf("app score %.3f, want undiscounted %.3f", got["app"], base["app"])
				}
				return
			}
			if vs[0].Server != "db" {
				t.Errorf("top verdict on %s, want db (%v)", vs[0].Server, vs)
			}
			if got["app"] >= got["db"] {
				t.Errorf("app score %.3f not discounted below db %.3f", got["app"], got["db"])
			}
		})
	}
}
