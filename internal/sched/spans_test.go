package sched

import (
	"fmt"
	"strings"
	"testing"

	"spothost/internal/cloud"
	"spothost/internal/market"
	"spothost/internal/sim"
	"spothost/internal/trace"
)

// startTraced builds a scheduler over set with a recorder on its engine,
// starts it and runs the engine to horizon.
func startTraced(t *testing.T, set *market.Set, cfg Config, horizon sim.Duration) (*Scheduler, *cloud.Provider, *trace.Recorder) {
	t.Helper()
	eng := sim.NewEngine()
	rec := trace.NewRecorder(t.Name())
	eng.SetRecorder(rec)
	prov := cloud.NewProvider(eng, set, fixedCloudParams())
	s, err := New(prov, cfg)
	if err != nil {
		t.Fatal(err)
	}
	s.Start()
	eng.RunUntil(horizon)
	return s, prov, rec
}

// choreography lists the scheduler lane's spans in recording order as
// "kind", "kind:class" or "kind:class(note)", leaving out the provider's
// billing-hour instants.
func choreography(rec *trace.Recorder) []string {
	var out []string
	for _, sp := range rec.Spans() {
		if sp.Kind == trace.KindBillingHour {
			continue
		}
		l := sp.Kind.String()
		if sp.Class != "" {
			l += ":" + sp.Class
		}
		if sp.Note != "" {
			l += "(" + sp.Note + ")"
		}
		out = append(out, l)
	}
	return out
}

// hasPrefix reports whether labels starts with want.
func hasPrefix(labels, want []string) bool {
	if len(labels) < len(want) {
		return false
	}
	for i, w := range want {
		if labels[i] != w {
			return false
		}
	}
	return true
}

func count(labels []string, want string) int {
	n := 0
	for _, l := range labels {
		if l == want {
			n++
		}
	}
	return n
}

// spanOf returns the first span recorded with kind k and class.
func spanOf(t *testing.T, rec *trace.Recorder, k trace.Kind, class string) trace.Span {
	t.Helper()
	for _, sp := range rec.Spans() {
		if sp.Kind == k && sp.Class == class {
			return sp
		}
	}
	t.Fatalf("no %s:%s span:\n%s", k, class, renderSpans(rec))
	return trace.Span{}
}

// renderSpans renders the scheduler lane for failure messages.
func renderSpans(rec *trace.Recorder) string {
	var b strings.Builder
	for _, sp := range rec.Spans() {
		if sp.Kind != trace.KindBillingHour {
			fmt.Fprintf(&b, "%8.0f..%8.0f %-9s %-10s %s\n", sp.Start, sp.End, sp.Kind, sp.Class, sp.Note)
		}
	}
	return b.String()
}

// TestEventLogForcedSequence asserts the exact span sequence of the
// paper's revocation flow: boot -> warning -> forced migration (suspend,
// down, restore) -> back up, followed by the reverse migration once the
// price recovers.
func TestEventLogForcedSequence(t *testing.T) {
	set := singleMarketSet(t, []market.Point{
		{T: 0, Price: 0.01},
		{T: 10000, Price: 0.30},
		{T: 20000, Price: 0.01},
	}, 40*sim.Hour)
	s, _, rec := startTraced(t, set, mustConfig(t), 40*sim.Hour)

	want := []string{
		"boot",                                                                        // spot bootstrap
		"warning", "migration:forced", "suspend:checkpoint", "down:forced", "restore", // forced migration
		"migration:reverse", // reverse migration
	}
	got := choreography(rec)
	if !hasPrefix(got, want) {
		t.Fatalf("choreography %v, want prefix %v\n%s", got, want, renderSpans(rec))
	}
	// Ordering sanity: start times non-decreasing.
	spans := rec.Spans()
	for i := 1; i < len(spans); i++ {
		if spans[i].Start < spans[i-1].Start {
			t.Fatalf("spans out of order at %d:\n%s", i, renderSpans(rec))
		}
	}
	if n := count(got, "warning"); n != 1 {
		t.Fatalf("warnings = %d", n)
	}
	// The service was up before the warning, and the forced migration,
	// its restore and its downtime all end when the service is back up.
	boot := spanOf(t, rec, trace.KindBoot, "")
	warn := spanOf(t, rec, trace.KindWarning, "")
	mig := spanOf(t, rec, trace.KindMigration, "forced")
	rest := spanOf(t, rec, trace.KindRestore, "")
	down := spanOf(t, rec, trace.KindDown, "forced")
	if boot.End > warn.Start || mig.End != rest.End || down.End != rest.End || mig.Note != "" {
		t.Fatalf("forced migration spans disagree:\n%s", renderSpans(rec))
	}
	r := s.Report()
	if r.Migrations.Forced != 1 || r.Migrations.Reverse != 1 || r.OnDemandSeconds == 0 {
		t.Fatalf("migrations %+v, on-demand %v s", r.Migrations, r.OnDemandSeconds)
	}
}

// TestEventLogPlannedSequence: a mid-band excursion produces a voluntary
// migration pair instead of warnings: planned onto on-demand, then
// reverse back onto spot.
func TestEventLogPlannedSequence(t *testing.T) {
	set := singleMarketSet(t, []market.Point{
		{T: 0, Price: 0.01},
		{T: 10000, Price: 0.10},
		{T: 30000, Price: 0.01},
	}, 40*sim.Hour)
	_, _, rec := startTraced(t, set, mustConfig(t), 40*sim.Hour)

	got := choreography(rec)
	if count(got, "warning") != 0 {
		t.Fatalf("proactive policy was warned:\n%s", renderSpans(rec))
	}
	want := []string{"boot", "migration:planned", "down:planned", "migration:reverse", "down:reverse"}
	if !hasPrefix(got, want) {
		t.Fatalf("choreography %v, want prefix %v\n%s", got, want, renderSpans(rec))
	}
}

// TestEventLogPureSpotWaiting: pure spot records the waiting state and
// comes back by restoring onto re-acquired spot capacity.
func TestEventLogPureSpotWaiting(t *testing.T) {
	set := singleMarketSet(t, []market.Point{
		{T: 0, Price: 0.01},
		{T: 10000, Price: 0.30},
		{T: 20000, Price: 0.01},
	}, 40*sim.Hour)
	cfg := mustConfig(t)
	cfg.Bidding = PureSpot
	s, _, rec := startTraced(t, set, cfg, 40*sim.Hour)

	got := choreography(rec)
	if count(got, "down:waiting") != 1 || count(got, "migration:forced(pure-spot waiting)") != 1 {
		t.Fatalf("waiting spans:\n%s", renderSpans(rec))
	}
	waiting := spanOf(t, rec, trace.KindDown, "waiting")
	rest := spanOf(t, rec, trace.KindRestore, "")
	if got[len(got)-1] != "restore" || rest.Start < waiting.Start || rest.End != waiting.End {
		t.Fatalf("reacquisition missing:\n%s", renderSpans(rec))
	}
	if r := s.Report(); r.OnDemandSeconds != 0 {
		t.Fatalf("pure spot ran on-demand for %v s", r.OnDemandSeconds)
	}
}
