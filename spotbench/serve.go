package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"spothost/internal/cloud"
	"spothost/internal/controlplane"
	"spothost/internal/fleet"
	"spothost/internal/market"
	"spothost/internal/scenario"
	"spothost/internal/sim"
)

// serveRates are the three fixed open-loop registration rates, in
// registrations per second. They were chosen from the saturation rate
// measured when the benchmark was introduced (see NOTES.md): high sits
// near the knee of the latency curve.
var serveRates = []serveRate{{"low", 15}, {"mid", 30}, {"high", 45}}

type serveRate struct {
	Name string
	PerS float64
}

// serveBursts is how many bursts a run drains after its rates. Each burst
// registers as many fleets as one rate, all at once, and wall_s is the
// median time a burst takes to drain.
const serveBursts = 6

// serveLimitMs is the latency limit on a rate's p95 register-to-done time.
const serveLimitMs = 1000

// serveDeadline is how long after its due time a fleet may take before it
// counts as failed.
const serveDeadline = 30 * time.Second

// serveShared is the shared universe seeds.
var serveShared = []int64{1001, 1002, 1003}

// The fleet mix. Horizons change the work per request, seeds decide
// whether the universe is a cache hit (one of the shared seeds,
// pre-generated during set-up) or generated in line on a shard (a fresh
// seed drawn from the workload seed), and placement is single-type or over
// the ten-type default catalog. Every rate gets exactly these proportions,
// shuffled by the workload seed, so runs with different seeds see the same
// mix in a different order; the shares keep the p50 and p95 away from the
// boundaries between horizon classes. The shared universes are the same
// for every workload seed: with three universes per run, drawing them from
// the seed made the p95 a property of those three universes.
var (
	serveDays      = []float64{1, 7, 30}
	serveDayWeight = []float64{0.75, 0.15, 0.1}
)

const (
	serveCatalogShare = 0.2
	serveFreshShare   = 0.06
	serveTenants      = 8
)

// fleetSpec is one distinct registration body up to its name.
type fleetSpec struct {
	Seed    int64
	Days    float64
	Catalog bool
}

func (s fleetSpec) def() scenario.FleetDef {
	d := scenario.FleetDef{Strategy: "diversified"}
	if s.Catalog {
		d.Catalog, d.AnchorType = "default", "small"
	}
	return d
}

func (s fleetSpec) cpSpec() controlplane.Spec {
	return controlplane.Spec{Seed: s.Seed, Days: s.Days, Fleet: s.def()}
}

// request is one scheduled registration and what happened to it.
type request struct {
	idx    int
	phase  int
	due    time.Time
	tenant string
	name   string
	spec   fleetSpec
	traced bool // spans on, and its queue wait is watched

	sent, acked time.Time
	leftQueue   time.Time
	done        time.Time
	failure     string // non-empty: refused, failed, late or wrong
	refused     bool
	nextPoll    time.Time
	report      json.RawMessage // the final report, once done
	root        int             // span ID of the request's root span
}

func (r *request) latencyMs() float64 { return ms(r.done.Sub(r.due)) }

// serveSchedule builds the run's registrations from the seed: per rate the
// same number of open-loop registrations whose gaps are the quantiles of an
// exponential distribution (Poisson-like bursts, same total length for
// every seed) in seeded order, with the fleet mix above; then serveBursts
// bursts of as many registrations, all due at the burst's start. Every
// burst registers the same fleets (names, so shard placement, and specs)
// for every seed, with fresh seeds of its own so its misses stay misses;
// the seed only orders them.
func serveSchedule(seed int64, seconds float64) []*request {
	freshBase := 1_000_000 + ((seed%100000)+100000)%100000*10000
	var inv float64
	for _, r := range serveRates {
		inv += 1 / r.PerS
	}
	n := max(1, int(seconds/inv))
	rng := rand.New(rand.NewSource(seed))
	// The mix is stratified jointly over horizon × placement × seed kind,
	// so every rate gets the same number of, say, fresh 30-day catalog
	// fleets — the rare kind whose in-line universe generation stalls a
	// shard for half a second — rather than a seed-dependent handful.
	type kind struct {
		days           float64
		catalog, fresh bool
	}
	share := func(p float64, on bool) float64 {
		if on {
			return p
		}
		return 1 - p
	}
	var kinds []kind
	var kindWeights []float64
	for d, days := range serveDays {
		for _, catalog := range []bool{false, true} {
			for _, fresh := range []bool{false, true} {
				kinds = append(kinds, kind{days, catalog, fresh})
				kindWeights = append(kindWeights, serveDayWeight[d]*share(serveCatalogShare, catalog)*share(serveFreshShare, fresh))
			}
		}
	}
	var reqs []*request
	for p, rate := range serveRates {
		gaps := make([]float64, n)
		for k := range gaps {
			gaps[k] = -math.Log(1-(float64(k)+0.5)/float64(n)) / rate.PerS
		}
		rng.Shuffle(n, func(i, j int) { gaps[i], gaps[j] = gaps[j], gaps[i] })
		mix := stratified(rng, n, kinds, kindWeights)
		seeds := stratified(rng, n, serveShared, []float64{1, 1, 1})
		var at float64
		for i := 0; i < n; i++ {
			at += gaps[i]
			idx := len(reqs)
			spec := fleetSpec{Seed: seeds[i], Days: mix[i].days, Catalog: mix[i].catalog}
			if mix[i].fresh {
				spec.Seed = freshBase + int64(idx)
			}
			reqs = append(reqs, &request{
				idx:    idx,
				phase:  p,
				due:    time.Time{}.Add(time.Duration(at * float64(time.Second))),
				tenant: "t" + strconv.Itoa(idx%serveTenants),
				name:   "f" + strconv.Itoa(idx),
				spec:   spec,
			})
		}
	}
	fixed := rand.New(rand.NewSource(1))
	burstMix := stratified(fixed, n, kinds, kindWeights)
	burstSeeds := stratified(fixed, n, serveShared, []float64{1, 1, 1})
	for b := 0; b < serveBursts; b++ {
		burst := make([]*request, n)
		for i := range burst {
			spec := fleetSpec{Seed: burstSeeds[i], Days: burstMix[i].days, Catalog: burstMix[i].catalog}
			if burstMix[i].fresh {
				spec.Seed = 500_000 + int64(b*10000+i)
			}
			burst[i] = &request{
				phase:  len(serveRates) + b,
				tenant: "t" + strconv.Itoa(i%serveTenants),
				name:   "b" + strconv.Itoa(i),
				spec:   spec,
			}
		}
		rng.Shuffle(n, func(i, j int) { burst[i], burst[j] = burst[j], burst[i] })
		for _, r := range burst {
			r.idx = len(reqs)
			reqs = append(reqs, r)
		}
	}
	return reqs
}

// stratified returns n values, vals[i] repeated in proportion to
// weights[i] (largest remainder), in an order shuffled by rng.
func stratified[T any](rng *rand.Rand, n int, vals []T, weights []float64) []T {
	var total float64
	for _, w := range weights {
		total += w
	}
	counts := make([]int, len(vals))
	rem := make([]float64, len(vals))
	left := n
	for i, w := range weights {
		x := w / total * float64(n)
		counts[i] = int(x)
		rem[i] = x - float64(counts[i])
		left -= counts[i]
	}
	for ; left > 0; left-- {
		best := 0
		for i := range rem {
			if rem[i] > rem[best] {
				best = i
			}
		}
		counts[best]++
		rem[best] = -1
	}
	out := make([]T, 0, n)
	for i, c := range counts {
		for ; c > 0; c-- {
			out = append(out, vals[i])
		}
	}
	rng.Shuffle(n, func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// reference is a standalone fleet.Run of one spec: the report every
// served fleet of that spec must match, and the run's wall time.
type reference struct {
	report []byte
	est    time.Duration
}

// computeReferences runs every distinct spec standalone, two at a time,
// over a private universe cache.
func computeReferences(specs []fleetSpec) (map[fleetSpec]reference, error) {
	cache := market.NewCache()
	out := make(map[fleetSpec]reference, len(specs))
	var mu sync.Mutex
	var firstErr error
	work := make(chan fleetSpec)
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for s := range work {
				ref, err := standalone(cache, s)
				mu.Lock()
				if err != nil && firstErr == nil {
					firstErr = err
				}
				out[s] = ref
				mu.Unlock()
			}
		}()
	}
	for _, s := range specs {
		work <- s
	}
	close(work)
	wg.Wait()
	return out, firstErr
}

// standalone runs a spec the way the one-shot path would: the universe
// the control plane would build for it, the same cloud parameters and the
// same fleet config.
func standalone(cache *market.Cache, s fleetSpec) (reference, error) {
	spec := s.cpSpec()
	horizon := spec.Days * sim.Day
	fcfg, err := spec.Fleet.Config(horizon, spec.Seed)
	if err != nil {
		return reference{}, err
	}
	mcfg := market.DefaultConfig(spec.Seed)
	mcfg.Horizon = horizon
	types, err := spec.Fleet.TypeSpecs()
	if err != nil {
		return reference{}, err
	}
	if types != nil {
		mcfg.Types = types
	}
	set, err := cache.Generate(mcfg)
	if err != nil {
		return reference{}, err
	}
	t0 := time.Now()
	rep, err := fleet.Run(set, cloud.DefaultParams(spec.Seed), fcfg, horizon)
	if err != nil {
		return reference{}, err
	}
	est := time.Since(t0)
	b, err := json.Marshal(rep)
	return reference{report: b, est: est}, err
}

// server is a spotserve child process.
type server struct {
	cmd   *exec.Cmd
	base  string
	start time.Time
}

func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

// startServer launches spotserve at its default shard count and waits
// until it answers /healthz.
func startServer(bin string) (*server, error) {
	if bin == "" {
		return nil, errors.New("--spotserve is required for the serve workload")
	}
	port, err := freePort()
	if err != nil {
		return nil, err
	}
	addr := "127.0.0.1:" + strconv.Itoa(port)
	cmd := exec.Command(bin, "-addr", addr)
	cmd.SysProcAttr = dieWithParent()
	s := &server{cmd: cmd, base: "http://" + addr, start: time.Now()}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	c := &http.Client{Timeout: time.Second}
	for deadline := time.Now().Add(20 * time.Second); time.Now().Before(deadline); time.Sleep(5 * time.Millisecond) {
		resp, err := c.Get(s.base + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				c.CloseIdleConnections()
				return s, nil
			}
		}
	}
	s.stop()
	return nil, errors.New("spotserve did not become healthy")
}

// stop shuts the server down gracefully (SIGTERM, then SIGKILL after ten
// seconds), waits for it and returns its peak RSS, CPU time and lifetime.
func (s *server) stop() (rssMB, cpuS, wallS float64) {
	_ = s.cmd.Process.Signal(syscall.SIGTERM)
	done := make(chan struct{})
	go func() { _ = s.cmd.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		_ = s.cmd.Process.Kill()
		<-done
	}
	wallS = time.Since(s.start).Seconds()
	if s.cmd.ProcessState != nil {
		cpu, rss := rusageOf(s.cmd.ProcessState)
		return rss, cpu.Seconds(), wallS
	}
	return 0, 0, wallS
}

// client is one keep-alive HTTP connection to the server.
func newClient() *http.Client {
	return &http.Client{
		Timeout:   30 * time.Second,
		Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true},
	}
}

func (s *server) do(c *http.Client, method, path string, body []byte) (int, []byte, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, s.base+path, rd)
	if err != nil {
		return 0, nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, b, err
}

func registrationBody(name string, s fleetSpec) []byte {
	// Marshaling strings, numbers and a FleetDef cannot fail.
	b, _ := json.Marshal(map[string]any{"name": name, "seed": s.Seed, "days": s.Days, "fleet": s.def()})
	return b
}

// snapshot is the part of GET .../fleets/{name} the load generator reads.
type snapshot struct {
	State  string          `json:"state"`
	Error  string          `json:"error"`
	Report json.RawMessage `json:"report"`
}

// pregenerate registers one warm-up fleet per shared-seed universe and
// waits for all of them, so those universes are resident in the server's
// cache before the timed run.
func (s *server) pregenerate(c *http.Client, shared []int64) error {
	var names []string
	for _, seed := range shared {
		for _, days := range serveDays {
			for _, cat := range []bool{false, true} {
				name := "w" + strconv.Itoa(len(names))
				code, b, err := s.do(c, http.MethodPost, "/v1/tenants/warmup/fleets", registrationBody(name, fleetSpec{seed, days, cat}))
				if err != nil {
					return err
				}
				if code != http.StatusCreated {
					return fmt.Errorf("warm-up registration: %d %s", code, b)
				}
				names = append(names, name)
			}
		}
	}
	deadline := time.Now().Add(60 * time.Second)
	for _, name := range names {
		for {
			code, b, err := s.do(c, http.MethodGet, "/v1/tenants/warmup/fleets/"+name, nil)
			if err != nil {
				return err
			}
			var snap snapshot
			if code != http.StatusOK || json.Unmarshal(b, &snap) != nil {
				return fmt.Errorf("warm-up snapshot: %d %s", code, b)
			}
			if snap.State == "done" {
				break
			}
			if snap.State == "failed" || time.Now().After(deadline) {
				return fmt.Errorf("warm-up fleet %s: %s %s", name, snap.State, snap.Error)
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
	return nil
}

// setupServe is one set-up trial: start spotserve, pre-generate the
// shared-seed universes and compute the reference reports.
func setupServe(bin string, shared []int64, specs []fleetSpec) (*server, map[fleetSpec]reference, error) {
	srv, err := startServer(bin)
	if err != nil {
		return nil, nil, err
	}
	c := newClient()
	defer c.CloseIdleConnections()
	if err := srv.pregenerate(c, shared); err != nil {
		srv.stop()
		return nil, nil, err
	}
	refs, err := computeReferences(specs)
	if err != nil {
		srv.stop()
		return nil, nil, err
	}
	return srv, refs, nil
}

// cpSample is one read of the control plane's /metrics.
type cpSample struct {
	at           time.Time
	steps        float64
	queueDepth   float64
	cacheHits    float64
	cacheMisses  float64
	fleetsDone   float64
	fleetsFailed float64
}

func (s *server) metrics(c *http.Client) (cpSample, error) {
	code, b, err := s.do(c, http.MethodGet, "/metrics", nil)
	if err != nil {
		return cpSample{}, err
	}
	if code != http.StatusOK {
		return cpSample{}, fmt.Errorf("/metrics: %d", code)
	}
	m := cpSample{at: time.Now()}
	sc := bufio.NewScanner(bytes.NewReader(b))
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "#") {
			continue
		}
		name, val, ok := strings.Cut(line, " ")
		if !ok {
			continue
		}
		v, err := strconv.ParseFloat(val, 64)
		if err != nil {
			continue
		}
		switch {
		case name == "spotserve_cp_steps_total":
			m.steps = v
		case name == "spotserve_cp_fleets_done":
			m.fleetsDone = v
		case name == "spotserve_cp_fleets_failed":
			m.fleetsFailed = v
		case strings.HasPrefix(name, "spotserve_cp_shard_queue_depth{"):
			m.queueDepth += v
		case name == "spotserve_market_cache_hits_total":
			m.cacheHits = v
		case name == "spotserve_market_cache_misses_total":
			m.cacheMisses = v
		}
	}
	return m, sc.Err()
}

// loadgen drives one timed run: two connections, a writer sending
// registrations when they are due and a reader following every
// registered fleet to completion.
type loadgen struct {
	srv      *server
	refs     map[fleetSpec]reference
	rec      *spanRec
	traced   bool
	writer   *http.Client
	reader   *http.Client
	samples  []cpSample
	lastPoll time.Time
}

// runPhase sends one rate's registrations and follows them until every
// one is done, failed, refused or past its deadline.
func (lg *loadgen) runPhase(reqs []*request) {
	start := time.Now().Add(20 * time.Millisecond)
	for _, r := range reqs {
		r.due = start.Add(r.due.Sub(time.Time{}))
	}
	acked := make(chan *request, len(reqs))
	go func() {
		for _, r := range reqs {
			time.Sleep(time.Until(r.due))
			lg.register(r)
			acked <- r
		}
	}()
	// pending fleets are being polled; closing ones are done and wait
	// for their report check, timeline read and unregister, which run
	// only when no poll is due within 2 ms so they never delay detection.
	var pending, closing []*request
	remaining := len(reqs)
	for remaining > 0 {
		now := time.Now()
		next := now.Add(20 * time.Millisecond)
		if lg.traced && now.Sub(lg.lastPoll) >= 250*time.Millisecond {
			if m, err := lg.srv.metrics(lg.reader); err == nil {
				lg.samples = append(lg.samples, m)
			}
			lg.lastPoll = now
		}
		keep := pending[:0]
		for _, r := range pending {
			if r.nextPoll.After(now) {
				if r.nextPoll.Before(next) {
					next = r.nextPoll
				}
				keep = append(keep, r)
				continue
			}
			switch done, ok := lg.poll(r); {
			case done && ok:
				closing = append(closing, r)
			case done:
				remaining--
			default:
				if r.nextPoll.Before(next) {
					next = r.nextPoll
				}
				keep = append(keep, r)
			}
		}
		pending = keep
		if len(closing) > 0 && (len(pending) == 0 || time.Until(next) >= 2*time.Millisecond) {
			lg.close(closing[0])
			closing = closing[1:]
			remaining--
			continue
		}
		timer := time.NewTimer(time.Until(next))
		select {
		case r := <-acked:
			if r.failure != "" {
				remaining--
			} else {
				pending = append(pending, r)
			}
		case <-timer.C:
		}
		timer.Stop()
	}
}

// runBurst registers a burst's fleets back to back on the writer and
// returns how long the burst took to drain: from its start until the
// control plane counts every registered fleet of it done or failed. The
// reader learns that from /metrics every 10 ms (one registry scan on the
// server a read) rather than from each fleet's snapshot; once the burst
// has drained, every fleet is checked and unregistered as after a rate.
func (lg *loadgen) runBurst(reqs []*request) (float64, error) {
	base, err := lg.srv.metrics(lg.reader)
	if err != nil {
		return 0, err
	}
	start := time.Now()
	for _, r := range reqs {
		r.due = start
	}
	registered := make(chan int)
	go func() {
		n := 0
		for _, r := range reqs {
			lg.register(r)
			if r.failure == "" {
				n++
			}
		}
		registered <- n
	}()
	want := -1
	var end time.Time
	for {
		select {
		case want = <-registered:
		case <-time.After(10 * time.Millisecond):
		}
		m, err := lg.srv.metrics(lg.reader)
		if err != nil {
			return 0, err
		}
		finished := m.fleetsDone - base.fleetsDone + m.fleetsFailed - base.fleetsFailed
		if want >= 0 && finished >= float64(want) {
			end = m.at
			break
		}
		if time.Since(start) > serveDeadline {
			end = time.Now()
			break
		}
	}
	if want < 0 {
		<-registered
	}
	for _, r := range reqs {
		if r.failure != "" {
			continue
		}
		if terminal, ok := lg.poll(r); !terminal {
			r.failure = "not done when its burst drained"
		} else if ok {
			lg.close(r)
		}
	}
	return end.Sub(start).Seconds(), nil
}

// register sends one registration on the writer connection.
func (lg *loadgen) register(r *request) {
	r.sent = time.Now()
	if r.traced {
		r.root = lg.rec.add("serve.fleet", 0, r.name, r.due, r.due) // ends when done
	}
	code, body, err := lg.srv.do(lg.writer, http.MethodPost, "/v1/tenants/"+r.tenant+"/fleets", registrationBody(r.name, r.spec))
	r.acked = time.Now()
	if r.traced {
		lg.rec.add("httpapi.register", r.root, r.name, r.sent, r.acked)
	}
	switch {
	case err != nil:
		r.failure, r.refused = "register: "+err.Error(), true
	case code != http.StatusCreated:
		r.failure, r.refused = fmt.Sprintf("register: %d %s", code, bytes.TrimSpace(body)), true
	}
	r.nextPoll = r.acked
	if !r.traced {
		r.nextPoll = lg.firstPoll(r)
	}
}

// poll reads one fleet's snapshot and reports whether it is terminal, and
// if so whether it is done rather than failed (close checks its report). A traced fleet is polled
// every millisecond until it leaves the queue; afterwards every fleet is
// polled at 5% of its age (1 ms to 20 ms), starting at half the time its
// standalone run took (a served fleet cannot finish sooner), so detection
// costs little and lags completion by at most 5%.
func (lg *loadgen) poll(r *request) (terminal, ok bool) {
	t0 := time.Now()
	code, body, err := lg.srv.do(lg.reader, http.MethodGet, "/v1/tenants/"+r.tenant+"/fleets/"+r.name, nil)
	t1 := time.Now()
	if r.traced {
		lg.rec.add("httpapi.snapshot", r.root, r.name, t0, t1)
	}
	var snap snapshot
	if err == nil && code == http.StatusOK {
		err = json.Unmarshal(body, &snap)
	} else if err == nil {
		err = fmt.Errorf("snapshot: %d %s", code, bytes.TrimSpace(body))
	}
	switch {
	case err != nil:
		r.failure = err.Error()
		return true, false
	case snap.State == "failed":
		r.failure = "fleet failed: " + snap.Error
		return true, false
	case snap.State == "done":
		r.done = t1
		if r.leftQueue.IsZero() {
			r.leftQueue = t1
		}
		r.report = snap.Report
		return true, true
	}
	if r.traced && r.leftQueue.IsZero() {
		if snap.State == "queued" {
			r.nextPoll = t1.Add(time.Millisecond)
			return false, false
		}
		r.leftQueue = t1
		r.nextPoll = lg.firstPoll(r)
	}
	if t1.Sub(r.due) > serveDeadline {
		r.failure = "not done by its deadline"
		return true, false
	}
	if r.nextPoll.After(t1) {
		return false, false
	}
	age := t1.Sub(r.acked)
	r.nextPoll = t1.Add(min(max(age/20, time.Millisecond), 20*time.Millisecond))
	return false, false
}

// firstPoll is when a fleet is first polled for completion.
func (lg *loadgen) firstPoll(r *request) time.Time {
	return r.acked.Add(lg.refs[r.spec].est / 2)
}

// close checks a done fleet's report against its standalone reference,
// reads its telemetry timeline and unregisters it.
func (lg *loadgen) close(r *request) {
	var got bytes.Buffer
	if err := json.Compact(&got, r.report); err != nil || !bytes.Equal(got.Bytes(), lg.refs[r.spec].report) {
		r.failure = "final report differs from a standalone fleet.Run of its spec"
	}
	t0 := time.Now()
	code, _, err := lg.srv.do(lg.reader, http.MethodGet, "/v1/tenants/"+r.tenant+"/fleets/"+r.name+"/timeline", nil)
	t1 := time.Now()
	if r.traced {
		lg.rec.add("httpapi.timeline", r.root, r.name, t0, t1)
		lg.rec.add("controlplane.queue", r.root, r.name, r.acked, r.leftQueue)
		lg.rec.endAt(r.root, r.done)
	}
	if r.failure == "" && (err != nil || code != http.StatusOK) {
		r.failure = fmt.Sprintf("timeline read: %d %v", code, err)
	}
	// The client is done with the fleet: unregistering it keeps the
	// server's registry, and so its heap, the same size from the first
	// phase to the last.
	code, _, err = lg.srv.do(lg.reader, http.MethodDelete, "/v1/tenants/"+r.tenant+"/fleets/"+r.name, nil)
	if r.failure == "" && (err != nil || code != http.StatusNoContent) {
		r.failure = fmt.Sprintf("unregister: %d %v", code, err)
	}
}

// phaseResult summarizes one rate.
type phaseResult struct {
	p50, p95  float64
	ok        bool // p95 within the limit, no backlog growth, no failures
	latencies []float64
}

// summarizePhase computes a rate's percentiles over the requests that
// pass keep. The backlog is growing when the median latency of the last
// third of the requests (by due time) is more than twice that of the
// first third and more than half the limit.
func summarizePhase(reqs []*request, keep func(*request) bool) phaseResult {
	var res phaseResult
	var failed int
	var thirds [3][]float64
	for i, r := range reqs {
		if r.failure != "" {
			failed++
			continue
		}
		if !keep(r) {
			continue
		}
		res.latencies = append(res.latencies, r.latencyMs())
		thirds[i*3/len(reqs)] = append(thirds[i*3/len(reqs)], r.latencyMs())
	}
	res.p50, res.p95 = median(res.latencies), pct(res.latencies, 95)
	growing := median(thirds[2]) > max(2*median(thirds[0]), serveLimitMs/2)
	res.ok = failed == 0 && len(res.latencies) > 0 && res.p95 <= serveLimitMs && !growing
	return res
}

// runServe is the serve workload.
func runServe(cfg config) (*outcome, error) {
	rates := serveRates
	reqs := serveSchedule(cfg.Seed, cfg.Seconds)
	seen := map[fleetSpec]bool{}
	var specs []fleetSpec
	for _, r := range reqs {
		if !seen[r.spec] {
			seen[r.spec] = true
			specs = append(specs, r.spec)
		}
	}
	sort.Slice(specs, func(i, j int) bool {
		return specs[i].Days*1e12+float64(specs[i].Seed) > specs[j].Days*1e12+float64(specs[j].Seed)
	})

	var (
		srv    *server
		refs   map[fleetSpec]reference
		setups []float64
	)
	for i := 0; i < serveSetupTrials; i++ {
		if srv != nil {
			srv.stop()
		}
		t0 := time.Now()
		var err error
		srv, refs, err = setupServe(cfg.Spotserve, serveShared, specs)
		if err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}

	lg := &loadgen{srv: srv, refs: refs, traced: cfg.Trace, writer: newClient(), reader: newClient()}
	if cfg.Trace {
		// Every other registration is traced, so traced and untraced
		// requests interleave under the same load.
		lg.rec = newSpanRec()
		for _, r := range reqs {
			r.traced = r.phase < len(rates) && r.idx%2 == 1
		}
		m, err := srv.metrics(lg.reader)
		if err != nil {
			srv.stop()
			return nil, err
		}
		lg.samples = append(lg.samples, m)
	}
	byPhase := make([][]*request, len(rates)+serveBursts)
	for _, r := range reqs {
		byPhase[r.phase] = append(byPhase[r.phase], r)
	}
	for _, ph := range byPhase[:len(rates)] {
		lg.runPhase(ph)
	}
	var final cpSample
	if cfg.Trace {
		m, err := srv.metrics(lg.reader)
		if err != nil {
			srv.stop()
			return nil, err
		}
		final = m
		lg.samples = append(lg.samples, m)
	}
	var drains []float64
	for b, ph := range byPhase[len(rates):] {
		root := lg.rec.begin("serve.burst", 0, "burst"+strconv.Itoa(b))
		d, err := lg.runBurst(ph)
		if err != nil {
			srv.stop()
			return nil, err
		}
		lg.rec.end(root)
		drains = append(drains, d)
		fmt.Fprintf(os.Stderr, "serve: burst %d: %d fleets drained in %.3f s\n", b, len(ph), d)
	}
	lg.writer.CloseIdleConnections()
	lg.reader.CloseIdleConnections()
	rss, cpu, life := srv.stop()

	out := newOutcome()
	var late []float64
	for _, r := range reqs {
		out.Attempted++
		if r.failure != "" {
			out.Failed++
			fmt.Fprintf(os.Stderr, "serve: %s/%s (%+v): %s\n", r.tenant, r.name, r.spec, r.failure)
		}
		if r.phase < len(rates) {
			late = append(late, ms(r.sent.Sub(r.due)))
		}
	}
	all := func(*request) bool { return true }
	untraced := func(r *request) bool { return !r.traced }
	var maxRate float64
	for p, ph := range byPhase[:len(rates)] {
		res := summarizePhase(ph, all)
		if res.ok {
			maxRate = rates[p].PerS
		}
		fmt.Fprintf(os.Stderr, "serve: %s %g/s: p50 %.1f ms, p95 %.1f ms over %d fleets, within limit: %v\n",
			rates[p].Name, rates[p].PerS, res.p50, res.p95, len(res.latencies), res.ok)
	}
	// The latencies are per-layer metrics: the host's noise, amplified by
	// queueing, moves them by a fifth to a third between runs, more than any
	// bound an end-to-end metric may have. The load reaches the end to end
	// through rate_per_s, and the server's speed through the bursts' drain
	// time.
	out.E2E = map[string]float64{
		"setup_s":    median(setups),
		"max_rss_mb": rss,
		"wall_s":     median(drains),
		"rate_per_s": maxRate,
	}
	if !cfg.Trace {
		return out, nil
	}

	L := out.Layer
	var tracedLat, untracedLat []float64
	for p, ph := range byPhase[:len(rates)] {
		res := summarizePhase(ph, untraced)
		L["serve_done_p50_ms."+rates[p].Name] = res.p50
		L["serve_done_p95_ms."+rates[p].Name] = res.p95
		if res.ok {
			L["serve_max_rate_per_s"] = rates[p].PerS
		}
		for _, r := range ph {
			if r.failure != "" {
				continue
			}
			if r.traced {
				tracedLat = append(tracedLat, r.latencyMs())
			} else {
				untracedLat = append(untracedLat, r.latencyMs())
			}
		}
	}
	L["trace.overhead_ratio"] = median(tracedLat) / median(untracedLat)
	L["loadgen.late_p95_ms"] = pct(late, 95)
	L["runpool.cpu_util"] = cpu / (life * 2)
	var refused float64
	for _, r := range reqs {
		if r.refused {
			refused++
		}
	}
	L["httpapi.refused"] = refused
	spans := lg.rec.finish()
	for _, n := range []string{"register", "snapshot", "timeline"} {
		d := durationsMs(spans, "httpapi."+n)
		L["httpapi."+n+"_p50_ms"] = median(d)
		L["httpapi."+n+"_p95_ms"] = pct(d, 95)
	}
	q := durationsMs(spans, "controlplane.queue")
	L["controlplane.queue_wait_p50_ms"] = median(q)
	L["controlplane.queue_wait_p95_ms"] = pct(q, 95)
	first := lg.samples[0]
	if dt := final.at.Sub(first.at).Seconds(); dt > 0 {
		L["controlplane.steps_per_s"] = (final.steps - first.steps) / dt
	}
	for _, m := range lg.samples {
		L["controlplane.queue_depth_max"] = max(L["controlplane.queue_depth_max"], m.queueDepth)
	}
	L["market.cache_hits"] = final.cacheHits
	L["market.cache_misses"] = final.cacheMisses
	if err := writeSpans(spansPath(cfg, "serve"), spans); err != nil {
		return nil, err
	}
	return out, nil
}

// serveSetupTrials is how many times a serve run sets up (the last
// server is kept for the timed run).
const serveSetupTrials = 3
