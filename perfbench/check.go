package main

import (
	"fmt"
	"sync"

	"repro/internal/cnn"
)

// layerOut is one trained feature layer as a /run response (or the traced
// run's core.Result) reports it.
type layerOut struct {
	Layer      string  `json:"layer"`
	FeatureDim int     `json:"feature_dim"`
	TrainF1    float64 `json:"train_f1"`
	TestF1     float64 `json:"test_f1"`
}

// runResponse is the part of a /run 200 body the checks read.
type runResponse struct {
	Crashed bool       `json:"crashed"`
	Crash   string     `json:"crash"`
	Layers  []layerOut `json:"layers"`
}

// checker validates run outputs: the feature layers and dimensions each
// model must produce, and that every output for one identity carries the
// same F1 values, whichever path (cold, warm, leader, follower, traced)
// produced it.
type checker struct {
	mu    sync.Mutex
	first map[identity][]layerOut
	// source records which phase first reported each identity.
	source map[identity]string
	// crossChecked counts traced outputs compared against an HTTP output.
	crossChecked int
}

func newChecker() *checker {
	return &checker{first: make(map[identity][]layerOut), source: make(map[identity]string)}
}

// expectedLayers returns the feature layers (name and flattened dimension)
// a run of req must train, top-most |L| of the model, bottom to top.
func expectedLayers(req request) ([]layerOut, error) {
	m, err := cnn.ByName(req.Model)
	if err != nil {
		return nil, err
	}
	fls, err := m.TopFeatureLayers(req.Layers)
	if err != nil {
		return nil, err
	}
	out := make([]layerOut, len(fls))
	for i, fl := range fls {
		dim, err := m.FeatureDim(fl)
		if err != nil {
			return nil, err
		}
		out[i] = layerOut{Layer: fl.Name, FeatureDim: dim}
	}
	return out, nil
}

// check validates one run's layers for req, reported by phase ("http" or
// "traced"). A traced output must match an earlier HTTP output.
func (c *checker) check(phase string, req request, got []layerOut) error {
	want, err := expectedLayers(req)
	if err != nil {
		return err
	}
	if len(got) != len(want) {
		return fmt.Errorf("%s %s seed %d: %d layers, want %d", phase, req.Model, req.Seed, len(got), len(want))
	}
	for i := range want {
		if got[i].Layer != want[i].Layer || got[i].FeatureDim != want[i].FeatureDim {
			return fmt.Errorf("%s %s seed %d: layer %d is %s/%d, want %s/%d", phase, req.Model, req.Seed,
				i, got[i].Layer, got[i].FeatureDim, want[i].Layer, want[i].FeatureDim)
		}
	}
	id := req.identity()
	c.mu.Lock()
	defer c.mu.Unlock()
	prev, seen := c.first[id]
	if !seen {
		if phase == "traced" {
			return fmt.Errorf("traced %s seed %d: no HTTP output to compare against", req.Model, req.Seed)
		}
		c.first[id] = append([]layerOut(nil), got...)
		c.source[id] = phase
		return nil
	}
	for i := range prev {
		if got[i].TrainF1 != prev[i].TrainF1 || got[i].TestF1 != prev[i].TestF1 {
			return fmt.Errorf("%s %s seed %d layer %s: F1 train/test %v/%v, but %s output had %v/%v",
				phase, req.Model, req.Seed, got[i].Layer, got[i].TrainF1, got[i].TestF1,
				c.source[id], prev[i].TrainF1, prev[i].TestF1)
		}
	}
	if phase == "traced" {
		c.crossChecked++
	}
	return nil
}
