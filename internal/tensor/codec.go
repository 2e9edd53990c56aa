package tensor

import (
	"bytes"
	"compress/flate"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"sync"
)

// ErrCorrupt indicates a malformed encoded tensor.
var ErrCorrupt = errors.New("tensor: corrupt encoding")

// Encode serializes a tensor into a flate-compressed binary blob:
// rank, dims, then float32 data, all little-endian. It is the "raw image"
// format of this reproduction — like JPEG in the paper, the on-disk image is
// much smaller than its decoded tensor (Section 1.1).
func Encode(t *Tensor) ([]byte, error) {
	shape := t.Shape()
	raw := make([]byte, 0, 4+4*len(shape)+4*len(t.Data()))
	var scratch [4]byte
	put := func(v uint32) {
		binary.LittleEndian.PutUint32(scratch[:], v)
		raw = append(raw, scratch[:]...)
	}
	put(uint32(len(shape)))
	for _, d := range shape {
		put(uint32(d))
	}
	for _, v := range t.Data() {
		put(math.Float32bits(v))
	}
	blob, err := Deflate(raw)
	if err != nil {
		return nil, fmt.Errorf("tensor: encode: %w", err)
	}
	return blob, nil
}

// deflaters pools flate.BestSpeed compressors: a fresh flate.Writer
// allocates over a megabyte of match tables and window, which would
// otherwise dominate encoding a single image.
var deflaters = sync.Pool{New: func() any {
	w, _ := flate.NewWriter(nil, flate.BestSpeed) // a valid level cannot fail
	return w
}}

// Deflate compresses raw at flate.BestSpeed with a pooled compressor. The
// output is byte-identical to a fresh flate.NewWriter's, because flate
// documents Reset as equivalent to NewWriter. It is the one compressor of
// every blob format in the repository: tensors here, row blobs
// (dataflow.EncodeRows) and weight checkpoints (cnn.SerializeWeights).
func Deflate(raw []byte) ([]byte, error) {
	w := deflaters.Get().(*flate.Writer)
	defer deflaters.Put(w)
	var out bytes.Buffer
	w.Reset(&out)
	if _, err := w.Write(raw); err != nil {
		return nil, err
	}
	if err := w.Close(); err != nil {
		return nil, err
	}
	return out.Bytes(), nil
}

// inflater is a pooled decompressor and the buffer it inflates into. A fresh
// flate reader allocates a 32 KiB window and io.ReadAll regrows its buffer by
// doubling; inference decodes one image per row, so unpooled, decoding would
// be most of the bytes an inference pass allocates.
type inflater struct {
	src bytes.Reader
	r   io.ReadCloser // a flate reader over src, reset per blob
	raw bytes.Buffer
}

var inflaters = sync.Pool{New: func() any {
	f := new(inflater)
	f.r = flate.NewReader(&f.src)
	return f
}}

// maxPooledInflate caps the buffer an inflater keeps in the pool, so one
// outsized blob does not pin its memory.
const maxPooledInflate = 4 << 20

// Inflate decompresses blob with a pooled decompressor and passes the
// decompressed bytes to use, returning use's error. A blob that does not
// decompress fails as fmt.Errorf("%w: decompress: %v", corrupt, err). raw is
// the pool's buffer, reused once use returns, so use must copy out whatever
// it keeps. It is the counterpart of Deflate and the one decompressor of
// every blob format in the repository.
func Inflate(blob []byte, corrupt error, use func(raw []byte) error) error {
	f := inflaters.Get().(*inflater)
	defer func() {
		if f.raw.Cap() > maxPooledInflate {
			f.raw = bytes.Buffer{}
		}
		f.src.Reset(nil)
		inflaters.Put(f)
	}()
	f.src.Reset(blob)
	f.r.(flate.Resetter).Reset(&f.src, nil) // never fails without a dictionary
	f.raw.Reset()
	if _, err := f.raw.ReadFrom(f.r); err != nil {
		return fmt.Errorf("%w: decompress: %v", corrupt, err)
	}
	if err := f.r.Close(); err != nil {
		return fmt.Errorf("%w: decompress: %v", corrupt, err)
	}
	return use(f.raw.Bytes())
}

// Decode reverses Encode.
func Decode(blob []byte) (*Tensor, error) {
	var t *Tensor
	err := Inflate(blob, ErrCorrupt, func(raw []byte) (err error) {
		t, err = decodeRaw(raw)
		return err
	})
	return t, err
}

// decodeRaw parses Encode's decompressed stream.
func decodeRaw(raw []byte) (*Tensor, error) {
	if len(raw) < 4 {
		return nil, ErrCorrupt
	}
	rank := binary.LittleEndian.Uint32(raw)
	if rank > 8 || len(raw) < int(4+4*rank) {
		return nil, ErrCorrupt
	}
	shape := make(Shape, rank)
	off := 4
	elems := 1
	for i := range shape {
		shape[i] = int(binary.LittleEndian.Uint32(raw[off:]))
		off += 4
		elems *= shape[i]
	}
	if !shape.Valid() || len(raw) != off+4*elems {
		return nil, ErrCorrupt
	}
	data := make([]float32, elems)
	for i := range data {
		data[i] = math.Float32frombits(binary.LittleEndian.Uint32(raw[off:]))
		off += 4
	}
	return FromSlice(data, shape...)
}
