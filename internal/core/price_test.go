package core

import (
	"errors"
	"testing"

	"repro/internal/memory"
	"repro/internal/optimizer"
)

// TestPriceDecisionMatchesRun pins the admission invariant: on an uncached
// spec, the decision a run is priced under is the decision it executes.
func TestPriceDecisionMatchesRun(t *testing.T) {
	spec := tinySpec(t, 60)
	d, cost, err := price(spec)
	if err != nil {
		t.Fatalf("price: %v", err)
	}
	if cost <= 0 {
		t.Errorf("cost = %d, want positive", cost)
	}
	res, err := Run(spec)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if d != res.Decision {
		t.Errorf("priced decision %+v differs from Run's %+v", d, res.Decision)
	}
}

func TestPriceInfeasible(t *testing.T) {
	spec := tinySpec(t, 60)
	spec.ModelName = "tiny-vgg16"
	spec.MemPerNode = memory.MB(8) // smaller than OS reservation
	if _, err := Price(spec); !errors.Is(err, optimizer.ErrNoFeasible) {
		t.Fatalf("Price on an 8 MB node = %v, want ErrNoFeasible", err)
	}
}

func TestPriceRejectsUnknownModel(t *testing.T) {
	spec := tinySpec(t, 10)
	spec.ModelName = "nope"
	if _, err := Price(spec); err == nil {
		t.Error("unknown model priced")
	}
}
