package obs

import "sort"

// sloAvailability is the served/target objective of the SLO policy: the
// error budget is 1 - sloAvailability. The policy alerts when the burn
// rate over a trailing window exceeds a threshold — the standard
// multiwindow burn-rate policy, evaluated over simulated time instead of
// a live metrics store.
const sloAvailability float64 = 0.999

// Alert is one upward burn-rate threshold crossing.
type Alert struct {
	At       float64 `json:"at_seconds"`
	Window   float64 `json:"window_seconds"`
	Burn     float64 `json:"burn"`
	Severity string  `json:"severity"` // "page" (fast window) or "ticket" (slow)
}

// evaluateSLO walks bucket edges of the folded shortfall/target series
// and emits an alert at every upward crossing of a window's burn
// threshold. The burn rate at time t over window w is the fraction of
// capacity demand unserved in [t-w, t] divided by the error budget:
// burning at exactly 1x would exhaust the budget in one objective
// period. Evaluation is a pure function of the bucketized series, so
// alerts are deterministic for a given run.
func evaluateSLO(shortfall, target *Series, now float64) []Alert {
	budget := 1 - sloAvailability
	var alerts []Alert
	// Page on sharp budget burn (1h at 14.4x), ticket on sustained burn
	// (6h at 6x). Widths are simulated seconds.
	for _, w := range []struct {
		width, thresh float64
		sev           string
	}{
		{3600, 14.4, "page"},
		{6 * 3600, 6, "ticket"},
	} {
		prev := 0.0
		for i := 0; i < len(shortfall.b); i++ {
			t := float64(i+1) * shortfall.width
			if t > now {
				t = now
			}
			tg := target.rangeIntegral(t-w.width, t, now)
			if tg > 0 {
				burn := shortfall.rangeIntegral(t-w.width, t, now) / tg / budget
				if burn >= w.thresh && prev < w.thresh {
					alerts = append(alerts, Alert{At: t, Window: w.width, Burn: burn, Severity: w.sev})
				}
				prev = burn
			}
			if t >= now {
				break
			}
		}
	}
	sort.Slice(alerts, func(i, j int) bool {
		if alerts[i].At != alerts[j].At {
			return alerts[i].Window < alerts[j].Window
		}
		return alerts[i].At < alerts[j].At
	})
	return alerts
}
