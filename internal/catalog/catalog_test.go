package catalog

import (
	"reflect"
	"testing"

	"spothost/internal/market"
	"spothost/internal/sim"
)

func TestLegacyMatchesDefaultTypes(t *testing.T) {
	if got, want := Legacy().TypeSpecs(), market.DefaultTypes(); !reflect.DeepEqual(got, want) {
		t.Fatalf("Legacy().TypeSpecs() = %+v, want market.DefaultTypes() %+v", got, want)
	}
}

func TestDefaultIncludesLegacyUnchanged(t *testing.T) {
	def := Default()
	for _, ts := range market.DefaultTypes() {
		e, ok := def.Lookup(ts.Name)
		if !ok {
			t.Fatalf("default catalog missing legacy type %q", ts.Name)
		}
		if e.Units != ts.Units || e.MemoryGB != ts.MemoryGB || e.OnDemand != ts.OnDemand {
			t.Fatalf("legacy type %q drifted: %+v vs %+v", ts.Name, e, ts)
		}
	}
	if def.Len() < 10 {
		t.Fatalf("default catalog has %d types, want >= 10", def.Len())
	}
}

func TestNewValidation(t *testing.T) {
	base := Entry{Name: "a", VCPU: 1, MemoryGB: 1, Units: 1, OnDemand: 0.1}
	cases := []struct {
		name string
		mut  func(*Entry)
	}{
		{"empty name", func(e *Entry) { e.Name = "" }},
		{"zero vcpu", func(e *Entry) { e.VCPU = 0 }},
		{"negative memory", func(e *Entry) { e.MemoryGB = -1 }},
		{"zero units", func(e *Entry) { e.Units = 0 }},
		{"non power-of-two units", func(e *Entry) { e.Units = 3 }},
		{"zero price", func(e *Entry) { e.OnDemand = 0 }},
	}
	for _, tc := range cases {
		e := base
		tc.mut(&e)
		if _, err := New([]Entry{e}); err == nil {
			t.Errorf("%s: New accepted %+v", tc.name, e)
		}
	}
	if _, err := New(nil); err == nil {
		t.Error("New accepted an empty catalog")
	}
	if _, err := New([]Entry{base, base}); err == nil {
		t.Error("New accepted a duplicate name")
	}
	if _, err := New([]Entry{base}); err != nil {
		t.Errorf("New rejected a valid entry: %v", err)
	}
}

func TestInvUnitsExact(t *testing.T) {
	for _, e := range Default().Entries() {
		for _, p := range []float64{0.0123, 0.06, 1.7320508, 15} {
			if p*e.InvUnits() != p/float64(e.Units) {
				t.Fatalf("%s: p*InvUnits != p/Units for p=%v", e.Name, p)
			}
		}
	}
}

func TestCompatibleTypes(t *testing.T) {
	def := Default()
	small, _ := def.Lookup("small")
	names := map[market.InstanceType]bool{}
	for _, e := range def.Entries() {
		if Compatible(small, e) {
			names[e.Name] = true
		}
	}
	// t-small has less memory than small: cheapest per unit, but not a
	// legal replacement.
	if names["t-small"] {
		t.Error("t-small reported compatible with small despite smaller memory")
	}
	if len(names) != def.Len()-1 {
		t.Errorf("small should be replaceable by every type but t-small, got %d of %d", len(names), def.Len())
	}
	// m-large (4 vCPU) cannot replace c-large (8 vCPU) despite more memory.
	cl, _ := def.Lookup("c-large")
	ml, _ := def.Lookup("m-large")
	if Compatible(cl, ml) {
		t.Error("m-large reported compatible with c-large despite fewer vCPUs")
	}
}

// catalogSet generates a universe over the full default catalog.
func catalogSet(t testing.TB, seed int64) *market.Set {
	t.Helper()
	cfg := market.DefaultConfig(seed)
	cfg.Types = Default().TypeSpecs()
	cfg.Horizon = 2 * sim.Day
	set, err := market.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return set
}

func TestCompatibleMarketsSorted(t *testing.T) {
	def := Default()
	set := catalogSet(t, 7)
	ids, err := def.CompatibleMarkets(set, "xlarge")
	if err != nil {
		t.Fatal(err)
	}
	for i, id := range ids {
		e, _ := def.Lookup(id.Type)
		if e.VCPU < 8 || e.MemoryGB < 15 {
			t.Fatalf("market %s weaker than xlarge anchor", id)
		}
		if i > 0 && ids[i-1].String() >= id.String() {
			t.Fatalf("markets not sorted at %d", i)
		}
	}
	// xlarge is replaceable by xlarge, m-xlarge, xxlarge in 4 regions.
	if want := 3 * 4; len(ids) != want {
		t.Fatalf("xlarge anchor: %d compatible markets, want %d", len(ids), want)
	}
	if _, err := def.CompatibleMarkets(set, "nope"); err == nil {
		t.Error("unknown anchor accepted")
	}
}
