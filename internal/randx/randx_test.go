package randx

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDeriveDeterministic(t *testing.T) {
	a := Derive(42, "market/us-east-1a/small")
	b := Derive(42, "market/us-east-1a/small")
	for i := 0; i < 100; i++ {
		if x, y := a.Float64(), b.Float64(); x != y {
			t.Fatalf("derived streams diverged at %d: %v vs %v", i, x, y)
		}
	}
}

func TestDeriveIndependentLabels(t *testing.T) {
	a := Derive(42, "a")
	b := Derive(42, "b")
	same := 0
	for i := 0; i < 100; i++ {
		if a.Float64() == b.Float64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("streams with different labels look identical (%d/100 equal)", same)
	}
}

func TestDeriveSeedSensitivity(t *testing.T) {
	a := Derive(1, "x")
	b := Derive(2, "x")
	if a.Float64() == b.Float64() && a.Float64() == b.Float64() {
		t.Fatal("different root seeds produced identical streams")
	}
}

func TestStreamDeriveSub(t *testing.T) {
	root := NewStream(7)
	a := root.Derive("vm-1")
	root2 := NewStream(7)
	b := root2.Derive("vm-1")
	if a.Float64() != b.Float64() {
		t.Fatal("sub-derivation not deterministic")
	}
}

func TestExpMean(t *testing.T) {
	s := NewStream(1)
	const n = 200000
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += s.Exp(95)
	}
	mean := sum / n
	if math.Abs(mean-95) > 2 {
		t.Fatalf("Exp(95) sample mean = %v", mean)
	}
}

func TestExpNonPositiveMean(t *testing.T) {
	s := NewStream(1)
	if got := s.Exp(0); got != 0 {
		t.Fatalf("Exp(0) = %v, want 0", got)
	}
	if got := s.Exp(-3); got != 0 {
		t.Fatalf("Exp(-3) = %v, want 0", got)
	}
}

func TestLognormalMeanCV(t *testing.T) {
	s := NewStream(3)
	const n = 200000
	var sum, sum2 float64
	for i := 0; i < n; i++ {
		v := s.LognormalMeanCV(100, 0.3)
		sum += v
		sum2 += v * v
	}
	mean := sum / n
	sd := math.Sqrt(sum2/n - mean*mean)
	if math.Abs(mean-100) > 1.5 {
		t.Fatalf("mean = %v, want ~100", mean)
	}
	if math.Abs(sd/mean-0.3) > 0.02 {
		t.Fatalf("cv = %v, want ~0.3", sd/mean)
	}
}

func TestLognormalMeanCVDegenerate(t *testing.T) {
	s := NewStream(3)
	if got := s.LognormalMeanCV(0, 0.3); got != 0 {
		t.Fatalf("mean 0 should yield 0, got %v", got)
	}
	if got := s.LognormalMeanCV(50, 0); got != 50 {
		t.Fatalf("cv 0 should yield the mean, got %v", got)
	}
}

func TestBoundedParetoRange(t *testing.T) {
	s := NewStream(9)
	f := func(u uint8) bool {
		xm := 1.0 + float64(u%7)
		max := xm * 10
		v := s.BoundedPareto(xm, 1.2, max)
		return v >= xm*(1-1e-9) && v <= max*(1+1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestBoundedParetoDegenerate(t *testing.T) {
	s := NewStream(2)
	if got := s.BoundedPareto(5, 2, 3); got != 5 {
		t.Fatalf("max <= xm should return xm, got %v", got)
	}
}

func TestUniformRange(t *testing.T) {
	s := NewStream(13)
	for i := 0; i < 10000; i++ {
		v := s.Uniform(3, 7)
		if v < 3 || v >= 7 {
			t.Fatalf("Uniform(3,7) = %v", v)
		}
	}
}

func TestBernoulliProbability(t *testing.T) {
	s := NewStream(17)
	hits := 0
	const n = 100000
	for i := 0; i < n; i++ {
		if s.Bernoulli(0.25) {
			hits++
		}
	}
	p := float64(hits) / n
	if math.Abs(p-0.25) > 0.01 {
		t.Fatalf("Bernoulli(0.25) hit rate %v", p)
	}
}
