package metrics

import (
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"spothost/internal/sim"
)

func TestDowntimeTracker(t *testing.T) {
	var d DowntimeTracker
	d.MarkDown(10)
	d.MarkDown(12) // no-op: already down
	d.MarkUp(40)
	d.MarkUp(50) // no-op: already up
	d.MarkDown(100)
	d.MarkUp(110)
	if got := d.Total(200); got != 40 {
		t.Fatalf("total = %v, want 40", got)
	}
	if d.Episodes() != 2 {
		t.Fatalf("episodes = %d", d.Episodes())
	}
	if d.Longest() != 30 {
		t.Fatalf("longest = %v", d.Longest())
	}
}

func TestDowntimeTrackerOpenEpisode(t *testing.T) {
	var d DowntimeTracker
	d.MarkDown(10)
	if got := d.Total(25); got != 15 {
		t.Fatalf("open episode total = %v", got)
	}
	if !d.Down() {
		t.Fatal("should be down")
	}
}

func TestDegraded(t *testing.T) {
	var d DowntimeTracker
	d.AddDegraded(30)
	d.AddDegraded(-5) // ignored
	if d.Degraded() != 30 {
		t.Fatalf("degraded = %v", d.Degraded())
	}
}

func TestReportDerived(t *testing.T) {
	r := Report{
		Horizon:         100 * sim.Hour,
		Cost:            25,
		BaselineCost:    100,
		DowntimeSeconds: 36,
		SpotSeconds:     900,
		OnDemandSeconds: 100,
		Migrations:      MigrationCounts{Forced: 2, Planned: 5, Reverse: 5},
	}
	if got := r.NormalizedCost(); got != 0.25 {
		t.Fatalf("normalized = %v", got)
	}
	if got := r.Unavailability(); math.Abs(got-36.0/360000) > 1e-12 {
		t.Fatalf("unavailability = %v", got)
	}
	if got := r.ForcedPerHour(); math.Abs(got-0.02) > 1e-12 {
		t.Fatalf("forced/hr = %v", got)
	}
	if got := r.PlannedReversePerHour(); math.Abs(got-0.1) > 1e-12 {
		t.Fatalf("voluntary/hr = %v", got)
	}
	if got := r.SpotFraction(); got != 0.9 {
		t.Fatalf("spot fraction = %v", got)
	}
	if got := r.Migrations.Total(); got != 12 {
		t.Fatalf("total migrations = %v", got)
	}
}

func TestReportZeroGuards(t *testing.T) {
	var r Report
	if r.NormalizedCost() != 0 || r.Unavailability() != 0 ||
		r.ForcedPerHour() != 0 || r.SpotFraction() != 0 {
		t.Fatal("zero report should yield zero derived metrics")
	}
}

func TestReportString(t *testing.T) {
	r := Report{Policy: "proactive", Mechanism: "CKPT LR + Live", Horizon: sim.Day}
	s := r.String()
	for _, want := range []string{"proactive", "CKPT LR + Live", "normalized", "unavailability"} {
		if !strings.Contains(s, want) {
			t.Fatalf("report string missing %q: %s", want, s)
		}
	}
}

func TestAverage(t *testing.T) {
	a := Report{Horizon: 100, Cost: 10, BaselineCost: 40, DowntimeSeconds: 2,
		Migrations: MigrationCounts{Forced: 1}, DownEpisodes: 1, LongestDowntime: 5}
	b := Report{Horizon: 100, Cost: 20, BaselineCost: 40, DowntimeSeconds: 4,
		Migrations: MigrationCounts{Forced: 2}, DownEpisodes: 3, LongestDowntime: 9}
	avg := Average([]Report{a, b})
	if avg.Cost != 15 || avg.BaselineCost != 40 || avg.DowntimeSeconds != 3 {
		t.Fatalf("avg = %+v", avg)
	}
	if avg.Migrations.Forced != 2 { // 1.5 rounds to 2
		t.Fatalf("forced = %d", avg.Migrations.Forced)
	}
	if avg.LongestDowntime != 9 {
		t.Fatalf("longest = %v", avg.LongestDowntime)
	}
}

// TestAccumMatchesAverage pins the cross-seed mean that sweeps stream and
// Average folds: labels from the first report, downtime logs dropped,
// every sum added in report order, counts rounded, the longest downtime
// the maximum, and the zero Report from an empty Accum.
func TestAccumMatchesAverage(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	reports := make([]Report, 7)
	for i := range reports {
		reports[i] = Report{
			Policy:          "proactive",
			Mechanism:       "ckpt+lazy+live",
			VMs:             4,
			Horizon:         30 * sim.Day,
			Cost:            rng.Float64() * 100,
			BaselineCost:    100,
			CheckpointGB:    rng.Float64() * 50,
			SpotSeconds:     rng.Float64() * 2e6,
			OnDemandSeconds: rng.Float64() * 1e5,
			DowntimeSeconds: rng.Float64() * 300,
			DegradedSeconds: rng.Float64() * 900,
			DownEpisodes:    rng.Intn(20),
			LongestDowntime: sim.Duration(rng.Intn(120)),
			Migrations: MigrationCounts{
				Forced:      rng.Intn(30),
				Planned:     rng.Intn(30),
				Reverse:     rng.Intn(30),
				CrossRegion: rng.Intn(5),
				MemoryLost:  rng.Intn(5),
			},
			DowntimeLog: []Interval{{Start: 1, End: 2}},
		}
	}
	var acc Accum
	if got := acc.Mean(); !reflect.DeepEqual(got, Report{}) {
		t.Fatalf("empty accumulator mean = %+v", got)
	}
	var cost, spot, forced, eps float64
	var longest sim.Duration
	for _, r := range reports {
		acc.Add(r)
		cost += r.Cost
		spot += r.SpotSeconds
		forced += float64(r.Migrations.Forced)
		eps += float64(r.DownEpisodes)
		longest = max(longest, r.LongestDowntime)
	}
	got, n := acc.Mean(), float64(len(reports))
	if got.Cost != cost/n || got.SpotSeconds != spot/n ||
		got.Migrations.Forced != int(forced/n+0.5) || got.DownEpisodes != int(eps/n+0.5) ||
		got.LongestDowntime != longest {
		t.Fatalf("streaming mean %+v is not the in-order mean", got)
	}
	if got.Policy != "proactive" || got.Mechanism != "ckpt+lazy+live" || got.VMs != 4 || got.DowntimeLog != nil {
		t.Fatalf("labels or downtime log not taken from the first report: %+v", got)
	}
	if want := Average(reports); !reflect.DeepEqual(got, want) {
		t.Fatalf("streaming mean differs from Average:\ngot:  %+v\nwant: %+v", got, want)
	}
}

func TestAverageEmptyPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Average(nil)
}
