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

	// markets holds the per-market hot-path state: a monotone trace cursor
	// (the simulation clock only moves forward) and the persistent price-
	// event closure, so the steady-state price chain allocates nothing.
	markets map[market.ID]*marketState

	nextID    InstanceID
	instances map[InstanceID]*Instance
	// byMarket holds the live spot instances per market for revocation
	// checks on price changes.
	byMarket map[market.ID]map[InstanceID]*Instance
	// spotScratch is reused by liveSpot to snapshot a market's live spot
	// instances without allocating per price change.
	spotScratch []*Instance

	ledger Ledger

	priceSubs map[market.ID][]func(t sim.Time, price float64)

	// Counters for reports and tests.
	revocations   int
	spotRequests  int
	neverGranted  int
	spotLaunched  int
	odLaunched    int
	userTerminate int
}

// NewProvider builds a provider over the price set, wiring price-change
// events into the engine. The provider starts delivering price events from
// time 0.
func NewProvider(eng *sim.Engine, set *market.Set, params Params) *Provider {
	p := &Provider{
		eng:       eng,
		set:       set,
		params:    params,
		rng:       randx.Derive(params.Seed, "cloud/provider"),
		markets:   map[market.ID]*marketState{},
		instances: map[InstanceID]*Instance{},
		byMarket:  map[market.ID]map[InstanceID]*Instance{},
		priceSubs: map[market.ID][]func(sim.Time, float64){},
	}
	for _, id := range set.IDs() {
		ms := &marketState{p: p, id: id, cursor: market.NewCursor(set.Trace(id))}
		ms.stepFn = func() {
			at, price := ms.nextAt, ms.nextPrice
			p.onPriceChange(ms.id, price)
			ms.arm(at)
		}
		p.markets[id] = ms
		ms.arm(eng.Now())
	}
	return p
}

// marketState is the per-market hot-path state: a monotone cursor over the
// trace and one persistent closure that drives the whole price-event chain.
type marketState struct {
	p      *Provider
	id     market.ID
	cursor *market.Cursor
	stepFn func()
	// nextAt/nextPrice describe the armed price change stepFn will deliver.
	nextAt    sim.Time
	nextPrice float64
}

// arm schedules the next price change strictly after the given time.
func (ms *marketState) arm(after sim.Time) {
	at, price, ok := ms.cursor.NextChangeAfter(after)
	if !ok {
		return
	}
	ms.nextAt, ms.nextPrice = at, price
	ms.p.eng.Post(at, ms.stepFn)
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
	if ms := p.markets[id]; ms != nil {
		return ms.cursor.PriceAt(p.eng.Now())
	}
	return p.set.Trace(id).PriceAt(p.eng.Now())
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

// SubscribePrice registers fn to run on every price change of market id.
// The subscription lasts for the life of the provider.
func (p *Provider) SubscribePrice(id market.ID, fn func(t sim.Time, price float64)) {
	p.priceSubs[id] = append(p.priceSubs[id], fn)
}

func (p *Provider) onPriceChange(id market.ID, price float64) {
	now := p.eng.Now()
	// Revoke or cancel spot instances whose bid the price now exceeds.
	for _, in := range p.liveSpot(id) {
		if price > in.bid {
			p.beginRevocation(in)
		}
	}
	for _, fn := range p.priceSubs[id] {
		fn(now, price)
	}
}

// liveSpot snapshots a market's live spot instances in deterministic order
// (ascending instance ID) into a reused scratch buffer. The result is only
// valid until the next call; the simulation is single-threaded, so the one
// caller (onPriceChange) finishes with it before anyone else can ask.
func (p *Provider) liveSpot(id market.ID) []*Instance {
	m := p.byMarket[id]
	if len(m) == 0 {
		return nil
	}
	out := p.spotScratch[:0]
	for _, in := range m {
		out = append(out, in)
	}
	// Insertion sort: the per-market population is small and this avoids
	// sort.Slice's closure allocation on every price change.
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j].id < out[j-1].id; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	p.spotScratch = out
	return out
}

// RequestSpot requests a spot instance in market id at the given bid. The
// request fails immediately when the market is unknown, the bid is not
// positive, exceeds the provider's bid cap, or is below the current spot
// price. On success the instance is Pending; OnRunning fires after the
// sampled allocation latency unless the price overtakes the bid first, in
// which case OnTerminated(ReasonNeverGranted) fires instead.
func (p *Provider) RequestSpot(id market.ID, bid float64, cb Callbacks) (*Instance, error) {
	tr := p.set.Trace(id)
	if tr == nil {
		return nil, fmt.Errorf("cloud: unknown market %s", id)
	}
	if bid <= 0 {
		return nil, fmt.Errorf("cloud: non-positive bid %v", bid)
	}
	if max := p.MaxBid(id); bid > max+1e-12 {
		return nil, fmt.Errorf("cloud: bid %v exceeds cap %v for %s", bid, max, id)
	}
	now := p.eng.Now()
	var cur float64
	if ms := p.markets[id]; ms != nil {
		cur = ms.cursor.PriceAt(now)
	} else {
		cur = tr.PriceAt(now)
	}
	if cur > bid {
		return nil, fmt.Errorf("cloud: current price %v above bid %v in %s", cur, bid, id)
	}
	p.spotRequests++
	in := p.newInstance(id, Spot, bid, cb)
	delay := p.rng.LognormalMeanCV(p.params.spotStartup(id.Region), p.params.StartupCV)
	p.eng.PostAfter(delay, func() { p.finishAllocation(in) })
	return in, nil
}

// RequestOnDemand requests a non-revocable on-demand instance. OnRunning
// fires after the sampled allocation latency.
func (p *Provider) RequestOnDemand(id market.ID, cb Callbacks) (*Instance, error) {
	if p.set.Trace(id) == nil {
		return nil, fmt.Errorf("cloud: unknown market %s", id)
	}
	in := p.newInstance(id, OnDemand, 0, cb)
	delay := p.rng.LognormalMeanCV(p.params.onDemandStartup(id.Region), p.params.StartupCV)
	p.eng.PostAfter(delay, func() { p.finishAllocation(in) })
	return in, nil
}

func (p *Provider) newInstance(id market.ID, lc Lifecycle, bid float64, cb Callbacks) *Instance {
	in := &Instance{
		id:        p.nextID,
		market:    id,
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
		if p.byMarket[id] == nil {
			p.byMarket[id] = map[InstanceID]*Instance{}
		}
		p.byMarket[id][in.id] = in
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
		if ms := p.markets[in.market]; ms != nil {
			rate = ms.cursor.PriceAt(now)
		} else {
			rate = p.set.Trace(in.market).PriceAt(now)
		}
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
		delete(p.byMarket[in.market], in.id)
	}
	if in.cb.OnTerminated != nil {
		in.cb.OnTerminated(in, reason)
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
