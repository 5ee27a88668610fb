// Package animal is the fixture the export guard scans: a type-aware scan
// must report Voice.Name and helper and nothing else.
package animal

// Speaker is called by interface from the fixture's main package.
type Speaker interface{ Speak() string }

// Dog is reached only through Speaker.
type Dog struct{}

// Speak is called by interface only.
func (Dog) Speak() string { return helperFree() }

// Label's Name is called by main.
type Label struct{ name string }

// Name is reached directly.
func (l Label) Name() string { return l.name }

// Voice's Name shares its name with Label.Name but only a test calls it.
type Voice struct{ name string }

// Name is test-only.
func (v Voice) Name() string { return v.name }

// helper calls itself and is otherwise called only from a test.
func helper(n int) int {
	if n > 0 {
		return helper(n - 1)
	}
	return n
}

func helperFree() string { return "woof" }
