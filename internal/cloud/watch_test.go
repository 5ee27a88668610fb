package cloud

import (
	"fmt"
	"reflect"
	"testing"

	"spothost/internal/market"
	"spothost/internal/sim"
)

// TestUnwatchedMarketStillDelivers requests a spot instance and subscribes
// to prices mid-run in markets nobody watched at construction: the
// request and the subscription must watch the market themselves, so the
// instance is still revoked and the subscriber still notified.
func TestUnwatchedMarketStillDelivers(t *testing.T) {
	eng, p := newTestProvider(t)
	if eng.Pending() != 0 {
		t.Fatalf("fresh provider armed %d events, want none", eng.Pending())
	}
	var in *Instance
	var reason TerminationReason
	var seen []sim.Time
	eng.Schedule(sim.Hour, func() {
		var err error
		in, err = p.RequestSpot(mSmall, 0.06, Callbacks{
			OnTerminated: func(_ *Instance, r TerminationReason) { reason = r },
		})
		if err != nil {
			t.Fatal(err)
		}
	})
	eng.Schedule(sim.Hour, func() {
		p.SubscribePrice(mSmall, func(at sim.Time, _ float64) { seen = append(seen, at) })
	})
	eng.RunUntil(5 * sim.Hour)
	if in == nil || in.State() != Terminated || reason != ReasonRevoked {
		t.Fatalf("instance %v (reason %v), want revoked by the 7200 s spike", in, reason)
	}
	if want := []sim.Time{7200, 10800}; !reflect.DeepEqual(seen, want) {
		t.Fatalf("subscriber saw changes at %v, want %v", seen, want)
	}
}

// TestWatchIdempotent watches a market repeatedly, directly and through a
// subscription: its chain is armed once and each change fires once.
func TestWatchIdempotent(t *testing.T) {
	eng, p := newTestProvider(t)
	p.Watch(mSmall)
	p.Watch(mSmall, mSmall)
	n := 0
	p.SubscribePrice(mSmall, func(sim.Time, float64) { n++ })
	p.Watch(mSmall, mLarge, market.ID{Region: "nowhere", Type: "small"})
	// mLarge's price is flat, so only mSmall has a change to arm.
	if eng.Pending() != 1 {
		t.Fatalf("pending = %d, want 1 armed chain", eng.Pending())
	}
	eng.RunUntil(p.Markets().Trace(mSmall).End())
	if n != 2 || eng.Processed() != 2 {
		t.Fatalf("subscriber fired %d times over %d events, want 2 and 2", n, eng.Processed())
	}
}

// TestWatchOrderIrrelevant watches two markets whose prices change at the
// same instants (a shared shock) as well as at instants of their own.
// Watching {B} then {A} must fire the same event sequence as watching
// {A, B} at once: the first events carry the sequence numbers reserved in
// ID order, however the watches were issued.
func TestWatchOrderIrrelevant(t *testing.T) {
	a := market.ID{Region: "r", Type: "a"}
	b := market.ID{Region: "r", Type: "b"}
	end := sim.Time(10 * sim.Hour)
	ta, err := market.NewTrace(a, []market.Point{
		{T: 0, Price: 0.01}, {T: 600, Price: 0.02}, {T: 1200, Price: 0.03},
		{T: 1800, Price: 0.01}, {T: 3000, Price: 0.04}, {T: 3600, Price: 0.02},
	}, end)
	if err != nil {
		t.Fatal(err)
	}
	tb, err := market.NewTrace(b, []market.Point{
		{T: 0, Price: 0.05}, {T: 600, Price: 0.06}, {T: 900, Price: 0.07},
		{T: 1800, Price: 0.05}, {T: 3600, Price: 0.08},
	}, end)
	if err != nil {
		t.Fatal(err)
	}
	set, err := market.NewSet([]*market.Trace{ta, tb}, map[market.ID]float64{a: 0.1, b: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	run := func(watch func(p *Provider)) []string {
		eng := sim.NewEngine()
		p := NewProvider(eng, set, fixedParams())
		watch(p)
		var log []string
		for _, id := range []market.ID{b, a} {
			id := id
			p.SubscribePrice(id, func(at sim.Time, price float64) {
				log = append(log, fmt.Sprintf("%v %s %v", at, id.Type, price))
			})
		}
		eng.RunUntil(end)
		return log
	}
	together := run(func(p *Provider) { p.Watch(a, b) })
	apart := run(func(p *Provider) { p.Watch(b); p.Watch(a) })
	if !reflect.DeepEqual(apart, together) {
		t.Fatalf("watching {B} then {A}:\n%v\nwatching {A,B}:\n%v", apart, together)
	}
	// The first shared instant fires in ID order (the reserved numbers);
	// later ones in the order their chains last fired, as always.
	want := []string{
		"600 a 0.02", "600 b 0.06", "900 b 0.07", "1200 a 0.03",
		"1800 b 0.05", "1800 a 0.01", "3000 a 0.04", "3600 b 0.08", "3600 a 0.02",
	}
	if !reflect.DeepEqual(together, want) {
		t.Fatalf("event sequence %v, want %v", together, want)
	}
}

// TestRestoreArmsOnlyWatchedChains snapshots a provider over a generated
// universe in which only some markets are watched. The restored engine's
// pending events must be exactly the watched markets' next price changes
// plus one billing hour per alive instance: no unwatched chain comes back.
func TestRestoreArmsOnlyWatchedChains(t *testing.T) {
	cfg := market.DefaultConfig(5)
	cfg.Horizon = 4 * sim.Day
	set, err := market.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ids := set.IDs()
	spotAt, subAt, odAt := ids[0], ids[3], ids[7]
	eng := sim.NewEngine()
	p := NewProvider(eng, set, fixedParams())
	if _, err := p.RequestSpot(spotAt, p.MaxBid(spotAt), Callbacks{}); err != nil {
		t.Fatal(err)
	}
	if _, err := p.RequestOnDemand(odAt, Callbacks{}); err != nil {
		t.Fatal(err)
	}
	p.SubscribePrice(subAt, func(sim.Time, float64) {})
	eng.RunUntil(sim.Day + 1800)
	snap, ok := p.Snapshot()
	if !ok {
		t.Fatal("provider not quiescent")
	}
	if want := []market.ID{spotAt, subAt}; !reflect.DeepEqual(snap.watched, want) {
		t.Fatalf("snapshot watched %v, want %v", snap.watched, want)
	}

	eng2 := sim.NewEngineAt(snap.at)
	r, err := RestoreProvider(eng2, set, fixedParams(), snap)
	if err != nil {
		t.Fatal(err)
	}
	want := 0
	for _, id := range snap.watched {
		if _, _, ok := set.Trace(id).NextChangeAfter(snap.at); ok {
			want++
		}
	}
	for _, si := range snap.insts {
		if si.state == Running || si.state == Revoking {
			want++
		}
	}
	if want < 3 {
		t.Fatalf("scenario too weak: only %d events expected", want)
	}
	if eng2.Pending() != want {
		t.Fatalf("restored engine has %d pending events, want %d (watched chains + billing)", eng2.Pending(), want)
	}
	for _, id := range ids {
		if w := r.markets[id].watched; w != (id == spotAt || id == subAt) {
			t.Fatalf("restored %s watched = %v", id, w)
		}
	}

	// The restored provider bills on exactly as the original does.
	eng.RunUntil(3 * sim.Day)
	eng2.RunUntil(3 * sim.Day)
	if !reflect.DeepEqual(r.Ledger().Entries(), p.Ledger().Entries()) {
		t.Fatal("restored ledger diverged from the original")
	}
}
