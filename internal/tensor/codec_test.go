package tensor

import (
	"bytes"
	"compress/flate"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"sync"
	"testing"
	"testing/quick"
)

func TestTensorCodecRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	in := New(3, 8, 8)
	for i := range in.Data() {
		in.Data()[i] = rng.Float32()
	}
	blob, err := Encode(in)
	if err != nil {
		t.Fatalf("Encode: %v", err)
	}
	out, err := Decode(blob)
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	if !out.Shape().Equal(in.Shape()) {
		t.Fatalf("shape = %v, want %v", out.Shape(), in.Shape())
	}
	for i := range in.Data() {
		if in.Data()[i] != out.Data()[i] {
			t.Fatalf("data mismatch at %d", i)
		}
	}
}

func TestTensorCodecCompressesSmoothData(t *testing.T) {
	// Smooth images (like natural photos) compress well below raw payload —
	// the raw-image-vs-feature-tensor size asymmetry of Section 1.1.
	in := New(3, 32, 32)
	for i := range in.Data() {
		in.Data()[i] = 0.5
	}
	blob, err := Encode(in)
	if err != nil {
		t.Fatal(err)
	}
	if int64(len(blob)) > in.SizeBytes()/4 {
		t.Errorf("constant image compressed to %d of %d raw bytes", len(blob), in.SizeBytes())
	}
}

func TestTensorDecodeErrors(t *testing.T) {
	if _, err := Decode([]byte{1, 2, 3}); err == nil {
		t.Error("decoded garbage")
	}
	blob, err := Encode(New(2, 2))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Decode(blob[:len(blob)-1]); err == nil {
		t.Error("decoded truncated blob")
	}
}

// Property: Encode/Decode round-trips arbitrary small tensors exactly.
func TestTensorCodecProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	f := func(d1, d2 uint8) bool {
		a, b := int(d1%8)+1, int(d2%8)+1
		in := New(a, b)
		for i := range in.Data() {
			in.Data()[i] = rng.Float32()*100 - 50
		}
		blob, err := Encode(in)
		if err != nil {
			return false
		}
		out, err := Decode(blob)
		if err != nil || !out.Shape().Equal(in.Shape()) {
			return false
		}
		for i := range in.Data() {
			if in.Data()[i] != out.Data()[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// freshDeflate compresses raw with a newly built BestSpeed writer: the
// reference the pooled Deflate must reproduce byte for byte.
func freshDeflate(t *testing.T, raw []byte) []byte {
	t.Helper()
	var out bytes.Buffer
	w, err := flate.NewWriter(&out, flate.BestSpeed)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Write(raw); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return out.Bytes()
}

// TestPooledDeflateMatchesFreshWriter encodes random tensors of varying
// shape back to back, so pooled compressors are reused dirty, and checks
// every blob against a fresh writer's compression of the same raw stream.
func TestPooledDeflateMatchesFreshWriter(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 40; i++ {
		in := New(1+rng.Intn(3), 1+rng.Intn(70), 1+rng.Intn(70))
		d := in.Data()
		smooth := i%2 == 0 // alternate compressible and noisy payloads
		for j := range d {
			if smooth {
				d[j] = float32(j%17) / 17
			} else {
				d[j] = rng.Float32()
			}
		}
		blob, err := Encode(in)
		if err != nil {
			t.Fatalf("Encode: %v", err)
		}
		raw, err := io.ReadAll(flate.NewReader(bytes.NewReader(blob)))
		if err != nil {
			t.Fatalf("inflate: %v", err)
		}
		if want := freshDeflate(t, raw); !bytes.Equal(blob, want) {
			t.Fatalf("tensor %d %v: pooled blob (%d bytes) differs from a fresh writer's (%d bytes)",
				i, in.Shape(), len(blob), len(want))
		}
	}
}

// TestPooledInflateMatchesFreshReader decodes blobs of varying size back to
// back and from several goroutines, so pooled decompressors and buffers are
// reused dirty, and checks every result against a fresh flate reader's. A
// corrupt blob between good ones must fail with ErrCorrupt and must not
// poison the next decode.
func TestPooledInflateMatchesFreshReader(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	blobs := make([][]byte, 24)
	for i := range blobs {
		in := New(1+rng.Intn(3), 1+rng.Intn(70), 1+rng.Intn(70))
		for j := range in.Data() {
			in.Data()[j] = rng.Float32()
		}
		blob, err := Encode(in)
		if err != nil {
			t.Fatal(err)
		}
		blobs[i] = blob
	}
	check := func(blob []byte) error {
		want, err := io.ReadAll(flate.NewReader(bytes.NewReader(blob)))
		if err != nil {
			return err
		}
		return Inflate(blob, ErrCorrupt, func(raw []byte) error {
			if !bytes.Equal(raw, want) {
				return fmt.Errorf("pooled inflate (%d bytes) differs from a fresh reader's (%d bytes)", len(raw), len(want))
			}
			return nil
		})
	}
	var wg sync.WaitGroup
	errs := make(chan error, 4*len(blobs))
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := range blobs {
				blob := blobs[(i+g*7)%len(blobs)]
				if err := check(blob); err != nil {
					errs <- err
				}
				if _, err := Decode(blob[:len(blob)/2]); !errors.Is(err, ErrCorrupt) {
					errs <- fmt.Errorf("truncated blob: err = %v, want ErrCorrupt", err)
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}
