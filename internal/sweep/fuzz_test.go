package sweep

import "testing"

// maxFuzzPoints bounds the grids FuzzParseGrid expands into plans; larger
// accepted grids are checked at the parse level only.
const maxFuzzPoints = 512

// FuzzParseGrid feeds arbitrary -grid strings to ParseGrid. Nothing may
// panic; an accepted grid has non-empty axes with unique knob names, and
// when its plan builds, the plan holds one point per element of the axes'
// cross product. The seed corpus (testdata/fuzz/FuzzParseGrid) holds the
// CI smoke grids and the benchmark's sweep grids.
func FuzzParseGrid(f *testing.F) {
	f.Fuzz(func(t *testing.T, s string) {
		axes, err := ParseGrid(s)
		if err != nil {
			return
		}
		if len(axes) == 0 {
			t.Fatalf("ParseGrid(%q) accepted an empty grid", s)
		}
		seen := map[string]bool{}
		points := 1
		for _, ax := range axes {
			if len(ax.Values) == 0 {
				t.Fatalf("ParseGrid(%q): axis %q has no values", s, ax.Knob)
			}
			if seen[ax.Knob] {
				t.Fatalf("ParseGrid(%q): duplicate knob %q", s, ax.Knob)
			}
			seen[ax.Knob] = true
			if points <= maxFuzzPoints {
				points *= len(ax.Values)
			}
		}
		if points > maxFuzzPoints {
			return
		}
		plan, err := NewPlan(axes, testHome, 0)
		if err != nil {
			return // values the scheduler config rejects
		}
		if len(plan.Points) != points || plan.Cells(3) != 3*points {
			t.Fatalf("ParseGrid(%q): plan has %d points (%d cells over 3 seeds), want %d",
				s, len(plan.Points), plan.Cells(3), points)
		}
	})
}
