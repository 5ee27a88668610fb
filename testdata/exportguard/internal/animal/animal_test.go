package animal

import "testing"

func TestVoice(t *testing.T) {
	if (Voice{name: "v"}).Name() != "v" || helper(2) != 0 {
		t.Fatal("fixture")
	}
}
