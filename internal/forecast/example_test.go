package forecast_test

import (
	"fmt"

	"spothost/internal/forecast"
)

// ExampleDecayingMoments tracks a spot price online and shows how a
// stability-aware bidder would rank a jumpy market against a steady one.
func ExampleDecayingMoments() {
	steady := forecast.NewDecayingMoments(3600)
	jumpy := forecast.NewDecayingMoments(3600)
	for ts := 0.0; ts < 36000; ts += 600 {
		steady.Observe(ts, 0.024)
		price := 0.004
		if int(ts/3600)%2 == 1 {
			price = 0.036 // alternates every hour around the same mean
		}
		jumpy.Observe(ts, price)
	}
	at := 36000.0
	lambda := 1.0
	steadyScore := forecast.Score(steady.Mean(at), steady.Std(at), lambda)
	jumpyScore := forecast.Score(jumpy.Mean(at), jumpy.Std(at), lambda)
	fmt.Printf("steady beats jumpy despite the higher mean: %v\n", steadyScore < jumpyScore)
	// Output:
	// steady beats jumpy despite the higher mean: true
}
