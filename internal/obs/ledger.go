package obs

import (
	"encoding/json"
)

// LedgerSchema versions the decision-ledger record layout. Consumers
// must check it before parsing: fields are only ever added (all optional
// ones carry omitempty), and any removal or change of meaning bumps the
// version.
const LedgerSchema = 1

// Decision is one controller action together with the inputs that
// justified it, serialized as one NDJSON line per record.
type Decision struct {
	Schema int     `json:"schema"`
	At     float64 `json:"at_seconds"`
	// Action is the request class: "spot", "on-demand", "reverse",
	// "rebalance", "downsize" or "bridge".
	Action string `json:"action"`
	Market string `json:"market,omitempty"`
	Type   string `json:"type,omitempty"`
	// Price is the chosen market's per-capacity-unit hourly price at
	// decision time; Bid is the raw bid covering it (spot classes only).
	Price float64 `json:"price,omitempty"`
	Bid   float64 `json:"bid,omitempty"`
	Units int     `json:"units,omitempty"`
	// Rank is the chosen market's index in the controller's sorted
	// candidate universe (the catalog rank in typed mode).
	Rank int `json:"rank"`
	// ArgminMarket/ArgminPrice are the price envelope's global per-unit
	// argmin at decision time — what the controller compared against.
	ArgminMarket string  `json:"argmin_market,omitempty"`
	ArgminPrice  float64 `json:"argmin_price,omitempty"`
	// Margin is the hysteresis margin the action cleared (reverse,
	// rebalance and downsize classes).
	Margin float64 `json:"margin,omitempty"`
	// TargetUnits/CapacityUnits/QuotaUnits are the quota state at
	// decision time: the unit target, the counted capacity before this
	// request, and the MaxReplicas ceiling in capacity units.
	TargetUnits   int `json:"target_units"`
	CapacityUnits int `json:"capacity_units"`
	QuotaUnits    int `json:"quota_units"`
	// Replaces names the market of the replica this launch drains.
	Replaces string `json:"replaces,omitempty"`
	Note     string `json:"note,omitempty"`
	// Label identifies the run when ledgers from several runs merge into
	// one stream; empty inside a single run.
	Label string `json:"label,omitempty"`
}

// AppendNDJSON appends the decision to dst as one JSON line.
func (d Decision) AppendNDJSON(dst []byte) ([]byte, error) {
	b, err := json.Marshal(d)
	if err != nil {
		return dst, err
	}
	dst = append(dst, b...)
	return append(dst, '\n'), nil
}
