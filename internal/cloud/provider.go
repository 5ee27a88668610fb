package cloud

import (
	"fmt"

	"spothost/internal/market"
	"spothost/internal/randx"
	"spothost/internal/sim"
	"spothost/internal/trace"
)

// Provider is the simulated infrastructure cloud. All methods must be
// called from inside the owning sim.Engine's event loop (the simulation is
// single-threaded by design).
type Provider struct {
	eng    *sim.Engine
	set    *market.Set
	params Params
	rng    *randx.Stream

	// markets holds the per-market state: price cursor, price-event chain,
	// live spot instances and subscribers.
	markets map[market.ID]*marketState

	nextID    InstanceID
	instances map[InstanceID]*Instance
	// spotScratch is reused by onPriceChange to snapshot a market's live
	// spot instances without allocating per price change.
	spotScratch []*Instance

	ledger Ledger

	// Counters for reports and tests.
	revocations   int
	spotRequests  int
	neverGranted  int
	spotLaunched  int
	odLaunched    int
	userTerminate int
}

// NewProvider builds a provider over the price set. It arms no price
// events: a market's price changes enter the engine only once the market is
// watched (Watch, or implicitly by RequestSpot and SubscribePrice), since a
// change in a market with no spot instance and no subscriber has no effect.
// Instead it reserves one engine sequence number per market, in ID order,
// for the market's first price event, so simultaneous price events fire in
// the same order whichever markets are watched and in whatever order.
func NewProvider(eng *sim.Engine, set *market.Set, params Params) *Provider {
	ids := set.IDs()
	p := &Provider{
		eng:       eng,
		set:       set,
		params:    params,
		rng:       randx.Derive(params.Seed, "cloud/provider"),
		markets:   make(map[market.ID]*marketState, len(ids)),
		instances: map[InstanceID]*Instance{},
	}
	seq0 := eng.Reserve(len(ids))
	for i, id := range ids {
		ms := &marketState{id: id, seq: seq0 + uint64(i), cursor: market.NewCursor(set.Trace(id))}
		ms.stepFn = func() {
			at := ms.nextAt
			p.onPriceChange(ms, ms.nextPrice)
			if ms.next(at) {
				eng.Post(ms.nextAt, ms.stepFn)
			}
		}
		p.markets[id] = ms
	}
	return p
}

// marketState is the per-market state: a monotone cursor over the trace
// (the simulation clock only moves forward), one persistent closure that
// drives the whole price-event chain once the market is watched, and the
// parties a price change concerns.
type marketState struct {
	id      market.ID
	seq     uint64 // engine sequence number reserved for the first price event
	cursor  *market.Cursor
	stepFn  func()
	watched bool
	// nextAt/nextPrice describe the armed price change stepFn will deliver.
	nextAt    sim.Time
	nextPrice float64
	// spot holds the market's live and pending spot instances in ascending
	// ID order: IDs only grow, so appending keeps the order.
	spot []*Instance
	subs []func(t sim.Time, price float64)
}

// next loads the first price change strictly after the given time into
// nextAt/nextPrice, reporting false when the trace has none.
func (ms *marketState) next(after sim.Time) bool {
	at, price, ok := ms.cursor.NextChangeAfter(after)
	ms.nextAt, ms.nextPrice = at, price
	return ok
}

// Watch starts delivering the price changes of the given markets: from now
// on each change revokes outbid spot instances and notifies subscribers.
// Watching is idempotent and lasts for the life of the provider; IDs
// outside the universe are ignored. A market's first price event carries
// the sequence number NewProvider reserved for it, so the order in which
// markets are watched never reorders simultaneous price events. Callers
// declare their candidate markets at construction; a market first watched
// mid-run sees every change strictly after the watch instant.
func (p *Provider) Watch(ids ...market.ID) {
	for _, id := range ids {
		if ms := p.markets[id]; ms != nil {
			p.watch(ms)
		}
	}
}

func (p *Provider) watch(ms *marketState) {
	if ms.watched {
		return
	}
	ms.watched = true
	if ms.next(p.eng.Now()) {
		p.eng.PostReserved(ms.nextAt, ms.seq, ms.stepFn)
	}
}

// Engine returns the simulation engine driving this provider.
func (p *Provider) Engine() *sim.Engine { return p.eng }

// Markets returns the market universe.
func (p *Provider) Markets() *market.Set { return p.set }

// Params returns the provider parameters.
func (p *Provider) Params() Params { return p.params }

// Ledger returns the billing ledger.
func (p *Provider) Ledger() *Ledger { return &p.ledger }

// SpotPrice returns the current spot price of a market.
func (p *Provider) SpotPrice(id market.ID) float64 {
	return p.markets[id].cursor.PriceAt(p.eng.Now())
}

// OnDemandPrice returns the fixed on-demand price of a market.
func (p *Provider) OnDemandPrice(id market.ID) float64 {
	return p.set.OnDemand(id)
}

// MaxBid returns the largest bid the provider accepts for a market
// (BidCap x on-demand).
func (p *Provider) MaxBid(id market.ID) float64 {
	return p.params.BidCap * p.set.OnDemand(id)
}

// SubscribePrice registers fn to run on every price change of market id,
// watching the market. The subscription lasts for the life of the
// provider; for a market outside the universe fn never runs.
func (p *Provider) SubscribePrice(id market.ID, fn func(t sim.Time, price float64)) {
	if ms := p.markets[id]; ms != nil {
		p.watch(ms)
		ms.subs = append(ms.subs, fn)
	}
}

func (p *Provider) onPriceChange(ms *marketState, price float64) {
	// Revoke or cancel spot instances whose bid the price now exceeds. The
	// callbacks this fires may add or end instances in the market, so once
	// some bid is exceeded the revocations walk a snapshot of the
	// population the price change met.
	for _, in := range ms.spot {
		if price > in.bid {
			live := append(p.spotScratch[:0], ms.spot...)
			for _, in := range live {
				if price > in.bid {
					p.beginRevocation(in)
				}
			}
			p.spotScratch = live
			break
		}
	}
	now := p.eng.Now()
	for _, fn := range ms.subs {
		fn(now, price)
	}
}

// RequestSpot requests a spot instance in market id at the given bid. The
// request fails immediately when the market is unknown, the bid is not
// positive, exceeds the provider's bid cap, or is below the current spot
// price. On success the instance is Pending; OnRunning fires after the
// sampled allocation latency unless the price overtakes the bid first, in
// which case OnTerminated(ReasonNeverGranted) fires instead.
func (p *Provider) RequestSpot(id market.ID, bid float64, cb Callbacks) (*Instance, error) {
	ms := p.markets[id]
	if ms == nil {
		return nil, fmt.Errorf("cloud: unknown market %s", id)
	}
	if bid <= 0 {
		return nil, fmt.Errorf("cloud: non-positive bid %v", bid)
	}
	if max := p.MaxBid(id); bid > max+1e-12 {
		return nil, fmt.Errorf("cloud: bid %v exceeds cap %v for %s", bid, max, id)
	}
	if cur := ms.cursor.PriceAt(p.eng.Now()); cur > bid {
		return nil, fmt.Errorf("cloud: current price %v above bid %v in %s", cur, bid, id)
	}
	p.spotRequests++
	p.watch(ms)
	in := p.newInstance(ms, Spot, bid, cb)
	delay := p.rng.LognormalMeanCV(p.params.spotStartup(id.Region), p.params.StartupCV)
	p.eng.PostAfter(delay, func() { p.finishAllocation(in) })
	return in, nil
}

// RequestOnDemand requests a non-revocable on-demand instance. OnRunning
// fires after the sampled allocation latency.
func (p *Provider) RequestOnDemand(id market.ID, cb Callbacks) (*Instance, error) {
	ms := p.markets[id]
	if ms == nil {
		return nil, fmt.Errorf("cloud: unknown market %s", id)
	}
	in := p.newInstance(ms, OnDemand, 0, cb)
	delay := p.rng.LognormalMeanCV(p.params.onDemandStartup(id.Region), p.params.StartupCV)
	p.eng.PostAfter(delay, func() { p.finishAllocation(in) })
	return in, nil
}

func (p *Provider) newInstance(ms *marketState, lc Lifecycle, bid float64, cb Callbacks) *Instance {
	in := &Instance{
		id:        p.nextID,
		market:    ms.id,
		ms:        ms,
		lifecycle: lc,
		bid:       bid,
		state:     Pending,
		cb:        cb,
	}
	// One persistent billing closure per instance instead of one per
	// instance-hour.
	in.hourFn = func() { p.chargeHour(in) }
	p.nextID++
	p.instances[in.id] = in
	if lc == Spot {
		ms.spot = append(ms.spot, in)
	}
	return in
}

func (p *Provider) finishAllocation(in *Instance) {
	if in.state != Pending {
		return // cancelled while allocating
	}
	now := p.eng.Now()
	// A spot request whose market overtook the bid during allocation was
	// already cancelled by beginRevocation (state != Pending); reaching
	// here means the bid still holds.
	in.state = Running
	in.runningAt = now
	if in.lifecycle == Spot {
		p.spotLaunched++
	} else {
		p.odLaunched++
	}
	p.chargeHour(in)
	if in.cb.OnRunning != nil {
		in.cb.OnRunning(in)
	}
}

// chargeHour bills the instance-hour starting now and schedules the next
// one.
func (p *Provider) chargeHour(in *Instance) {
	if !in.Alive() {
		return
	}
	now := p.eng.Now()
	rec := p.eng.Recorder()
	rate := p.set.OnDemand(in.market)
	class := "on-demand"
	if in.lifecycle == Spot {
		// "billed on an hourly basis, based on the spot price (not the
		// bid price) at the beginning of each hour".
		rate = in.ms.cursor.PriceAt(now)
		class = "spot"
		rec.ObserveSpotPrice(rate)
	}
	rec.Instant(trace.KindBillingHour, class, "billing", now)
	in.lastHourAt = now
	in.lastHourCost = rate
	in.charged += rate
	p.ledger.add(Charge{
		At: now, Instance: in.id, Market: in.market,
		Spot: in.lifecycle == Spot, Kind: ChargeHour, Amount: rate,
	})
	if o := p.eng.Obs(); o != nil {
		o.Charge(float64(now), in.market.String(), string(in.market.Type), rate)
	}
	in.hourEvent = p.eng.After(sim.Hour, in.hourFn)
}

// beginRevocation warns a spot instance and schedules its termination
// after the grace period. Pending requests are cancelled immediately.
func (p *Provider) beginRevocation(in *Instance) {
	switch in.state {
	case Pending:
		// The request was never granted: cancel silently (no charge).
		p.neverGranted++
		p.terminate(in, ReasonNeverGranted)
		return
	case Running:
		// fall through to warn
	default:
		return // already revoking or gone
	}
	in.state = Revoking
	in.warnDeadline = p.eng.Now() + p.params.GracePeriod
	p.revocations++
	if in.cb.OnRevocationWarning != nil {
		in.cb.OnRevocationWarning(in, in.warnDeadline)
	}
	p.eng.Post(in.warnDeadline, func() {
		if in.state == Revoking {
			p.refundPartialHour(in)
			p.terminate(in, ReasonRevoked)
		}
	})
}

// refundPartialHour reverses the in-progress hour of a revoked spot
// instance when the revocation lands strictly inside the hour.
func (p *Provider) refundPartialHour(in *Instance) {
	now := p.eng.Now()
	if in.lastHourCost == 0 || now >= in.lastHourAt+sim.Hour {
		return
	}
	in.charged -= in.lastHourCost
	p.ledger.add(Charge{
		At: now, Instance: in.id, Market: in.market,
		Spot: true, Kind: ChargeRefund, Amount: -in.lastHourCost,
	})
	if o := p.eng.Obs(); o != nil {
		o.Charge(float64(now), in.market.String(), string(in.market.Type), -in.lastHourCost)
	}
}

// Terminate voluntarily releases an instance. A started hour remains
// billed in full (EC2 charged user-terminated partial hours). Terminating
// a Pending request cancels it without charge; terminating an instance
// that is already Terminated is an error.
func (p *Provider) Terminate(in *Instance) error {
	switch in.state {
	case Terminated:
		return fmt.Errorf("cloud: %v already terminated", in)
	case Pending:
		p.terminate(in, ReasonUser)
		return nil
	default:
		p.userTerminate++
		p.terminate(in, ReasonUser)
		return nil
	}
}

func (p *Provider) terminate(in *Instance, reason TerminationReason) {
	in.state = Terminated
	in.reason = reason
	if in.hourEvent != nil {
		p.eng.Cancel(in.hourEvent)
		in.hourEvent = nil
	}
	if in.lifecycle == Spot {
		in.ms.removeSpot(in)
	}
	if in.cb.OnTerminated != nil {
		in.cb.OnTerminated(in, reason)
	}
}

// removeSpot drops an ended spot instance from the market's population,
// keeping the rest in ID order.
func (ms *marketState) removeSpot(in *Instance) {
	for i, x := range ms.spot {
		if x == in {
			n := len(ms.spot) - 1
			copy(ms.spot[i:], ms.spot[i+1:])
			ms.spot[n] = nil
			ms.spot = ms.spot[:n]
			return
		}
	}
}

// Instance returns a previously created instance by ID, or nil.
func (p *Provider) Instance(id InstanceID) *Instance { return p.instances[id] }

// Counters exposes aggregate provider statistics for reports and tests.
type Counters struct {
	SpotRequests    int
	SpotLaunched    int
	OnDemandLaunch  int
	Revocations     int
	NeverGranted    int
	UserTerminating int
}

// Counters returns a snapshot of the provider's aggregate statistics.
func (p *Provider) Counters() Counters {
	return Counters{
		SpotRequests:    p.spotRequests,
		SpotLaunched:    p.spotLaunched,
		OnDemandLaunch:  p.odLaunched,
		Revocations:     p.revocations,
		NeverGranted:    p.neverGranted,
		UserTerminating: p.userTerminate,
	}
}
