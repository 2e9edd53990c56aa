package dataflow

import (
	"bytes"
	"compress/flate"
	"io"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"repro/internal/tensor"
)

func sampleRow(id int64) Row {
	return Row{
		ID:         id,
		Label:      1,
		Structured: []float32{1.5, -2.25, 3},
		Image:      []byte{9, 8, 7, 6},
		Features: tensor.NewTensorList(
			tensor.MustFromSlice([]float32{1, 2, 3, 4}, 2, 2),
			tensor.MustFromSlice([]float32{5, 6}, 2),
		),
	}
}

func rowsEqual(a, b *Row) bool {
	if a.ID != b.ID || a.Label != b.Label {
		return false
	}
	if !reflect.DeepEqual(a.Structured, b.Structured) {
		return false
	}
	if !reflect.DeepEqual(a.Image, b.Image) {
		return false
	}
	an, bn := 0, 0
	if a.Features != nil {
		an = a.Features.Len()
	}
	if b.Features != nil {
		bn = b.Features.Len()
	}
	if an != bn {
		return false
	}
	for i := 0; i < an; i++ {
		ta, tb := a.Features.Get(i), b.Features.Get(i)
		if !ta.Shape().Equal(tb.Shape()) || !reflect.DeepEqual(ta.Data(), tb.Data()) {
			return false
		}
	}
	return true
}

func TestRowCodecRoundTrip(t *testing.T) {
	rows := []Row{
		sampleRow(1),
		{ID: 2},                          // all-nil payloads
		{ID: 3, Structured: []float32{}}, // empty but non-nil
		{ID: 4, Image: []byte{}},         // empty image
		{ID: 5, Features: tensor.NewTensorList()}, // empty list
		{ID: -6, Label: -0.5, Structured: []float32{7}},
	}
	blob, err := EncodeRows(rows)
	if err != nil {
		t.Fatalf("EncodeRows: %v", err)
	}
	got, err := DecodeRows(blob)
	if err != nil {
		t.Fatalf("DecodeRows: %v", err)
	}
	if len(got) != len(rows) {
		t.Fatalf("decoded %d rows, want %d", len(got), len(rows))
	}
	for i := range rows {
		if !rowsEqual(&rows[i], &got[i]) {
			t.Errorf("row %d mismatch:\n in: %+v\nout: %+v", i, rows[i], got[i])
		}
	}
}

func TestRowCodecNilVsEmptyPreserved(t *testing.T) {
	rows := []Row{{ID: 1}, {ID: 2, Structured: []float32{}, Image: []byte{}, Features: tensor.NewTensorList()}}
	blob, err := EncodeRows(rows)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeRows(blob)
	if err != nil {
		t.Fatal(err)
	}
	if got[0].Structured != nil || got[0].Image != nil || got[0].Features != nil {
		t.Error("nil payloads not preserved")
	}
	if got[1].Structured == nil || got[1].Image == nil || got[1].Features == nil {
		t.Error("empty payloads decoded as nil")
	}
}

func TestDecodeRowsCorruption(t *testing.T) {
	blob, err := EncodeRows([]Row{sampleRow(1)})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeRows(blob[:len(blob)/2]); err == nil {
		t.Error("expected error decoding truncated blob")
	}
	if _, err := DecodeRows([]byte{0x00, 0x01, 0x02}); err == nil {
		t.Error("expected error decoding garbage")
	}
}

func TestRowMemBytes(t *testing.T) {
	r := Row{ID: 1}
	base := r.MemBytes()
	if base <= 0 {
		t.Fatal("empty row has non-positive footprint")
	}
	r.Structured = make([]float32, 100)
	if got := r.MemBytes(); got != base+400 {
		t.Errorf("structured delta = %d, want 400", got-base)
	}
	r.Features = tensor.NewTensorList(tensor.New(10))
	if r.MemBytes() <= base+400 {
		t.Error("features did not increase footprint")
	}
}

func TestRowClone(t *testing.T) {
	r := sampleRow(9)
	c := r.Clone()
	c.Structured[0] = 99
	c.Image[0] = 99
	c.Features.Get(0).Set(99, 0, 0)
	if r.Structured[0] == 99 || r.Image[0] == 99 || r.Features.Get(0).At(0, 0) == 99 {
		t.Error("Clone shares storage")
	}
}

// Property: the codec round-trips arbitrary structured payloads exactly.
func TestRowCodecProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	f := func(id int64, label float32, n uint8) bool {
		r := Row{ID: id, Label: label, Structured: make([]float32, int(n%64))}
		for i := range r.Structured {
			r.Structured[i] = rng.Float32()*200 - 100
		}
		if n%3 == 0 {
			r.Image = make([]byte, int(n))
			rng.Read(r.Image)
		}
		if n%4 == 0 {
			r.Features = tensor.NewTensorList(tensor.New(int(n%7) + 1))
		}
		blob, err := EncodeRows([]Row{r})
		if err != nil {
			return false
		}
		got, err := DecodeRows(blob)
		if err != nil || len(got) != 1 {
			return false
		}
		return rowsEqual(&r, &got[0])
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestEncodeRowsCompresses(t *testing.T) {
	// Highly redundant rows must compress well below their raw payload —
	// the premise of the serialized persistence format (Section 4.2.3 and
	// Appendix A's compressibility observation).
	rows := make([]Row, 50)
	for i := range rows {
		rows[i] = Row{ID: int64(i), Structured: make([]float32, 1000)} // zeros
	}
	blob, err := EncodeRows(rows)
	if err != nil {
		t.Fatal(err)
	}
	raw := int64(50 * 1000 * 4)
	if int64(len(blob)) > raw/5 {
		t.Errorf("compressed %d bytes for %d raw; expected at least 5x compression of zeros", len(blob), raw)
	}
}

// TestEncodeRowsMatchesFreshWriter checks that EncodeRows' pooled
// compressor, reused dirty across blobs of varying size, emits exactly what
// a freshly built BestSpeed writer emits for the same raw row stream.
func TestEncodeRowsMatchesFreshWriter(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 20; i++ {
		rows := make([]Row, 1+rng.Intn(40))
		for j := range rows {
			s := make([]float32, rng.Intn(16))
			for k := range s {
				s[k] = rng.Float32()
			}
			img := make([]byte, rng.Intn(512))
			rng.Read(img)
			rows[j] = Row{ID: int64(j), Label: float32(j % 2), Structured: s, Image: img}
		}
		blob, err := EncodeRows(rows)
		if err != nil {
			t.Fatalf("EncodeRows: %v", err)
		}
		raw, err := io.ReadAll(flate.NewReader(bytes.NewReader(blob)))
		if err != nil {
			t.Fatalf("inflate: %v", err)
		}
		var want bytes.Buffer
		w, err := flate.NewWriter(&want, flate.BestSpeed)
		if err != nil {
			t.Fatal(err)
		}
		w.Write(raw)
		w.Close()
		if !bytes.Equal(blob, want.Bytes()) {
			t.Fatalf("batch %d: pooled blob (%d bytes) differs from a fresh writer's (%d bytes)",
				i, len(blob), want.Len())
		}
	}
}
