package cloud

import (
	"spothost/internal/market"
	"spothost/internal/sim"
)

// ChargeKind classifies ledger entries.
type ChargeKind int

const (
	// ChargeHour is one instance-hour billed at its start.
	ChargeHour ChargeKind = iota
	// ChargeRefund reverses the in-progress hour of a provider-revoked
	// spot instance ("partial hours are not billed if a spot server is
	// revoked before the end of an hourly billing period").
	ChargeRefund
)

// Charge is one billing ledger entry.
type Charge struct {
	At       sim.Time
	Instance InstanceID
	Market   market.ID
	Spot     bool
	Kind     ChargeKind
	Amount   float64 // negative for refunds
}

// Ledger accumulates all charges issued by a provider.
type Ledger struct {
	entries []Charge
	total   float64
}

func (l *Ledger) add(c Charge) {
	l.entries = append(l.entries, c)
	l.total += c.Amount
}

// Total returns the net amount billed.
func (l *Ledger) Total() float64 { return l.total }

// Entries returns the raw ledger. Callers must not modify the result.
func (l *Ledger) Entries() []Charge { return l.entries }
