package main

import (
	"fmt"
	"time"

	"repro/internal/cnn"
	"repro/internal/data"
	"repro/internal/tensor"
)

const (
	// cnnImages is how many of the workload's images each layer is timed on.
	cnnImages = 16
	// cnnReps is how many times each model's layers are timed; the median
	// per layer is kept.
	cnnReps = 5
)

// layerTiming is one CNN layer's per-image time and its modeled work.
type layerTiming struct {
	name  string
	kind  string // conv, pool or fc
	ms    float64
	flops int64 // per image, from Layer.FLOPs
	bytes int64 // per image: input plus output tensor sizes × 4 B
}

// layerKind classifies a layer for the per-kind rates. Bottleneck blocks are
// convolutions.
func layerKind(l cnn.Layer) string {
	switch l.(type) {
	case *cnn.MaxPool, *cnn.GlobalAvgPool:
		return "pool"
	case *cnn.FC:
		return "fc"
	}
	return "conv"
}

// timeCNNLayers applies every layer of the model, one at a time, to the
// first cnnImages decoded images of a rows-row dataset, with weights
// realized from seed, and reports the median per-image time of each layer.
func timeCNNLayers(modelName string, rows int, seed int64) ([]layerTiming, error) {
	m, err := cnn.ByName(modelName)
	if err != nil {
		return nil, err
	}
	w, err := m.RealizeWeights(seed)
	if err != nil {
		return nil, err
	}
	n := cnnImages
	if rows < n {
		n = rows
	}
	_, imageRows, err := data.Generate(data.Foods().WithRows(n))
	if err != nil {
		return nil, err
	}
	inputs := make([]*tensor.Tensor, n)
	for i := range inputs {
		if inputs[i], err = tensor.Decode(imageRows[i].Image); err != nil {
			return nil, err
		}
	}
	out := make([]layerTiming, len(m.Layers))
	samples := make([][]float64, len(m.Layers))
	for rep := 0; rep < cnnReps; rep++ {
		acts := inputs
		for li, l := range m.Layers {
			next := make([]*tensor.Tensor, n)
			start := time.Now()
			for i, in := range acts {
				if next[i], err = l.Apply(in, w.Layers[li]); err != nil {
					return nil, fmt.Errorf("%s layer %s: %w", modelName, l.Name(), err)
				}
			}
			samples[li] = append(samples[li], time.Since(start).Seconds()*1000/float64(n))
			if rep == 0 {
				inShape := acts[0].Shape()
				out[li] = layerTiming{
					name:  l.Name(),
					kind:  layerKind(l),
					flops: l.FLOPs(inShape),
					bytes: 4 * int64(inShape.NumElements()+next[0].Shape().NumElements()),
				}
			}
			acts = next
		}
	}
	for li := range out {
		out[li].ms = median(samples[li])
	}
	return out, nil
}

// kindRate is a model's achieved rate over all layers of one kind: GFLOP/s
// from the modeled FLOPs, or GB/s from the computed bytes.
func kindRate(ls []layerTiming, kind string, useBytes bool) float64 {
	var work, ms float64
	for _, l := range ls {
		if l.kind != kind {
			continue
		}
		ms += l.ms
		if useBytes {
			work += float64(l.bytes)
		} else {
			work += float64(l.flops)
		}
	}
	return ratio(work/1e9, ms/1000)
}
