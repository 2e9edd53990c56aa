package cnn

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"math"

	"repro/internal/tensor"
)

// This file serializes realized CNN weights — the artifact Vista's driver
// builds once and broadcasts to every worker (Section 4.1: "the Driver reads
// and creates a serialized version of the CNN and broadcasts it to the
// workers"). The format is a flate-compressed stream of per-layer tensors.

// ErrCorruptWeights indicates a malformed serialized checkpoint.
var ErrCorruptWeights = errors.New("cnn: corrupt serialized weights")

// weightSlots orders a LayerWeights' tensor fields for serialization.
func weightSlots(w *LayerWeights) [][]float32 {
	return [][]float32{w.W, w.B, w.Gamma, w.Beta, w.Mean, w.Var}
}

func encodeLayer(buf *bytes.Buffer, w *LayerWeights) {
	var scratch [4]byte
	put := func(v uint32) {
		binary.LittleEndian.PutUint32(scratch[:], v)
		buf.Write(scratch[:])
	}
	for _, slot := range weightSlots(w) {
		put(uint32(len(slot)))
		for _, v := range slot {
			put(math.Float32bits(v))
		}
	}
	put(uint32(len(w.Sub)))
	for _, sub := range w.Sub {
		encodeLayer(buf, sub)
	}
}

// encodedLayerSize is the byte length encodeLayer writes for w.
func encodedLayerSize(w *LayerWeights) int {
	n := 4 // sublayer count
	for _, slot := range weightSlots(w) {
		n += 4 + 4*len(slot)
	}
	for _, sub := range w.Sub {
		n += encodedLayerSize(sub)
	}
	return n
}

type weightReader struct {
	buf []byte
	off int
}

func (r *weightReader) u32() (uint32, error) {
	if r.off+4 > len(r.buf) {
		return 0, ErrCorruptWeights
	}
	v := binary.LittleEndian.Uint32(r.buf[r.off:])
	r.off += 4
	return v, nil
}

func (r *weightReader) decodeLayer(depth int) (*LayerWeights, error) {
	if depth > 8 {
		return nil, fmt.Errorf("%w: nesting too deep", ErrCorruptWeights)
	}
	w := &LayerWeights{}
	slots := []*[]float32{&w.W, &w.B, &w.Gamma, &w.Beta, &w.Mean, &w.Var}
	for _, slot := range slots {
		n, err := r.u32()
		if err != nil {
			return nil, err
		}
		if n == 0 {
			continue
		}
		if r.off+int(n)*4 > len(r.buf) {
			return nil, ErrCorruptWeights
		}
		vals := make([]float32, n)
		for i := range vals {
			vals[i] = math.Float32frombits(binary.LittleEndian.Uint32(r.buf[r.off:]))
			r.off += 4
		}
		*slot = vals
	}
	nSub, err := r.u32()
	if err != nil {
		return nil, err
	}
	if nSub > 64 {
		return nil, fmt.Errorf("%w: %d sublayers", ErrCorruptWeights, nSub)
	}
	for i := 0; i < int(nSub); i++ {
		sub, err := r.decodeLayer(depth + 1)
		if err != nil {
			return nil, err
		}
		w.Sub = append(w.Sub, sub)
	}
	return w, nil
}

// encodeWeights produces the raw (pre-compression) checkpoint stream.
func encodeWeights(w *Weights) []byte {
	var raw bytes.Buffer
	size := 4
	for _, lw := range w.Layers {
		size += encodedLayerSize(lw)
	}
	raw.Grow(size)
	var scratch [4]byte
	binary.LittleEndian.PutUint32(scratch[:], uint32(len(w.Layers)))
	raw.Write(scratch[:])
	for _, lw := range w.Layers {
		encodeLayer(&raw, lw)
	}
	return raw.Bytes()
}

// SerializeWeights encodes realized weights into a compressed checkpoint.
func SerializeWeights(w *Weights) ([]byte, error) {
	blob, err := tensor.Deflate(encodeWeights(w))
	if err != nil {
		return nil, fmt.Errorf("cnn: serialize: %w", err)
	}
	return blob, nil
}

// WeightsChecksum fingerprints realized weights as the hex SHA-256 of the
// raw checkpoint stream. It hashes the pre-flate bytes so the checksum
// depends only on the weight values, not on the compressor — the identity a
// feature store uses to pin cached features to one exact set of weights.
func WeightsChecksum(w *Weights) string {
	sum := sha256.Sum256(encodeWeights(w))
	return hex.EncodeToString(sum[:])
}

// DeserializeWeights reverses SerializeWeights. The layer count must match
// the model the weights are used with; PartialInfer validates that.
func DeserializeWeights(blob []byte) (*Weights, error) {
	var w *Weights
	err := tensor.Inflate(blob, ErrCorruptWeights, func(raw []byte) (err error) {
		w, err = decodeWeights(raw)
		return err
	})
	return w, err
}

// decodeWeights parses the raw checkpoint stream encodeWeights produces.
func decodeWeights(raw []byte) (*Weights, error) {
	r := &weightReader{buf: raw}
	n, err := r.u32()
	if err != nil {
		return nil, err
	}
	if n > 4096 {
		return nil, fmt.Errorf("%w: %d layers", ErrCorruptWeights, n)
	}
	w := &Weights{Layers: make([]*LayerWeights, 0, n)}
	for i := 0; i < int(n); i++ {
		lw, err := r.decodeLayer(0)
		if err != nil {
			return nil, fmt.Errorf("layer %d: %w", i, err)
		}
		w.Layers = append(w.Layers, lw)
	}
	if r.off != len(raw) {
		return nil, fmt.Errorf("%w: %d trailing bytes", ErrCorruptWeights, len(raw)-r.off)
	}
	return w, nil
}
