package experiments

// Renderer is any experiment result that can print itself.
type Renderer interface {
	Render() string
}

// Entry names one experiment and how to run it.
type Entry struct {
	Name string
	Run  func(Options) (Renderer, error)
}

// All lists every experiment in the paper's order.
func All() []Entry {
	return []Entry{
		{"figure1", func(o Options) (Renderer, error) { return Figure1(o) }},
		{"table1", func(o Options) (Renderer, error) { return Table1(o) }},
		{"table2", func(o Options) (Renderer, error) { return Table2(o) }},
		{"figure6", func(o Options) (Renderer, error) { return Figure6(o) }},
		{"figure7", func(o Options) (Renderer, error) { return Figure7(o) }},
		{"figure8", func(o Options) (Renderer, error) { return Figure8(o) }},
		{"figure9", func(o Options) (Renderer, error) { return Figure9(o) }},
		{"figure10", func(o Options) (Renderer, error) { return Figure10(o) }},
		{"figure11", func(o Options) (Renderer, error) { return Figure11(o) }},
		{"table3", func(o Options) (Renderer, error) { return Table3(o) }},
		{"table4", func(o Options) (Renderer, error) { return Table4(o) }},
		{"figure12", func(o Options) (Renderer, error) { return Figure12(o) }},
		{"section6", func(o Options) (Renderer, error) { return Section6(o) }},
		{"ablations", func(o Options) (Renderer, error) { return Ablations(o) }},
		{"robustness", func(o Options) (Renderer, error) { return Robustness(o) }},
		{"fleet", func(o Options) (Renderer, error) { return Fleet(o) }},
		{"heterogeneity", func(o Options) (Renderer, error) { return Heterogeneity(o) }},
	}
}

// Find returns the entry with the given name.
func Find(name string) (Entry, bool) {
	for _, e := range All() {
		if e.Name == name {
			return e, true
		}
	}
	return Entry{}, false
}
