package cloud

import (
	"math"
	"testing"

	"spothost/internal/sim"
)

// splitTotals sums the ledger's entries by purchase model.
func splitTotals(l *Ledger) (spot, onDemand float64) {
	for _, c := range l.Entries() {
		if c.Spot {
			spot += c.Amount
		} else {
			onDemand += c.Amount
		}
	}
	return spot, onDemand
}

// byInstance sums the ledger's entries per instance.
func byInstance(l *Ledger) map[InstanceID]float64 {
	out := map[InstanceID]float64{}
	for _, c := range l.Entries() {
		out[c.Instance] += c.Amount
	}
	return out
}

// buildLedgerFixture runs a mixed workload and returns the provider.
func buildLedgerFixture(t *testing.T) (*sim.Engine, *Provider) {
	t.Helper()
	eng, p := newTestProvider(t)
	// Spot instance revoked by the 7200 spike (partial hour refunded).
	if _, err := p.RequestSpot(mSmall, 0.06, Callbacks{}); err != nil {
		t.Fatal(err)
	}
	// On-demand instance running throughout.
	if _, err := p.RequestOnDemand(mLarge, Callbacks{}); err != nil {
		t.Fatal(err)
	}
	eng.RunUntil(10 * sim.Hour)
	return eng, p
}

// TestLedgerByInstance: each instance's ledger entries add up to what the
// instance reports as charged.
func TestLedgerByInstance(t *testing.T) {
	_, p := buildLedgerFixture(t)
	by := byInstance(p.Ledger())
	if len(by) != 2 {
		t.Fatalf("instances in ledger = %d", len(by))
	}
	for id, v := range by {
		if got := p.Instance(id).Charged(); math.Abs(got-v) > 1e-9 {
			t.Fatalf("instance %d: ledger %v vs charged %v", id, v, got)
		}
	}
}

func TestLedgerRefunds(t *testing.T) {
	_, p := buildLedgerFixture(t)
	// The revoked spot instance's in-progress hour was refunded.
	refunds := 0.0
	for _, c := range p.Ledger().Entries() {
		if c.Kind == ChargeRefund {
			if !c.Spot || c.Amount >= 0 {
				t.Fatalf("refund entry %+v", c)
			}
			refunds -= c.Amount
		}
	}
	if refunds <= 0 {
		t.Fatalf("refunds = %v, want positive", refunds)
	}
}
