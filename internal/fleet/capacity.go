package fleet

import (
	"fmt"
	"math"
	"sync"

	"spothost/internal/tpcw"
)

// Planner converts an offered load into a target replica count — the
// SLO-driven half of autoscaling. Implementations must be deterministic
// pure functions of the load and safe for concurrent use (one Planner is
// shared across parallel simulation cells).
type Planner interface {
	Replicas(load float64) int
}

// LinearPlanner is the simplest capacity model: one replica per
// PerReplica units of load, rounded up. Useful for tests and for fleets
// whose per-replica capacity is known out of band.
type LinearPlanner struct {
	// PerReplica is the load one replica can absorb.
	PerReplica float64
}

// Replicas implements Planner.
func (p LinearPlanner) Replicas(load float64) int {
	if p.PerReplica <= 0 || load <= 0 {
		return 1
	}
	n := int(math.Ceil(load / p.PerReplica))
	if n < 1 {
		n = 1
	}
	return n
}

// TPCWPlanner sizes the fleet with the Section-6 queueing model: the
// target replica count for a load is the smallest count whose simulated
// mean response time meets TargetMs (tpcw.PlanCapacity). Loads are
// quantized up to a grid and plans are memoized, so a month-long
// controller run triggers only a handful of queueing simulations.
type TPCWPlanner struct {
	cfg         tpcw.Config
	targetMs    float64
	maxReplicas int
	quantum     float64

	// memo maps a quantized load (EBs) to its *plan. Each entry plans
	// once: a hit never waits, callers missing on the same load wait for
	// the one plan in flight, and misses on different loads plan
	// concurrently.
	memo sync.Map
}

// plan is one memoized capacity plan.
type plan struct {
	once     sync.Once
	replicas int
}

// NewTPCWPlanner builds a planner over the paper's CPU-bound ordering mix
// on nested VMs (tpcw.DefaultConfig; EBs is overridden per lookup) with a
// shortened measurement window: the planner runs the queueing model many
// times, and capacity plans are insensitive to window length beyond a few
// hundred seconds. quantum is the load grid in EBs.
func NewTPCWPlanner(targetMs float64, maxReplicas int, quantum float64, seed int64) (*TPCWPlanner, error) {
	if targetMs <= 0 {
		return nil, fmt.Errorf("fleet: response-time target must be positive, got %v", targetMs)
	}
	if maxReplicas <= 0 || quantum <= 0 {
		return nil, fmt.Errorf("fleet: maxReplicas and quantum must be positive")
	}
	cfg := tpcw.DefaultConfig(1, false, true, seed)
	cfg.Duration = 600
	cfg.Warmup = 120
	return &TPCWPlanner{
		cfg:         cfg,
		targetMs:    targetMs,
		maxReplicas: maxReplicas,
		quantum:     quantum,
	}, nil
}

// Replicas implements Planner: the plan for the load rounded up to the
// quantization grid. When even maxReplicas misses the target the planner
// returns maxReplicas (degraded but maximal capacity).
func (p *TPCWPlanner) Replicas(load float64) int {
	ebs := int(math.Ceil(load/p.quantum)) * int(p.quantum)
	if ebs < 1 {
		ebs = 1
	}
	e, ok := p.memo.Load(ebs)
	if !ok {
		e, _ = p.memo.LoadOrStore(ebs, &plan{})
	}
	pl := e.(*plan)
	pl.once.Do(func() {
		cfg := p.cfg
		cfg.EBs = ebs
		pl.replicas = p.maxReplicas
		if res, err := tpcw.PlanCapacity(cfg, p.targetMs, p.maxReplicas); err == nil {
			pl.replicas = res.Replicas
		}
	})
	return pl.replicas
}
