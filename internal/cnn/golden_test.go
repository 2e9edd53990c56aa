package cnn

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"runtime"
	"testing"

	"repro/internal/tensor"
)

// goldenLayerHashes pins every layer output of the tiny roster, bit for bit,
// for weights seed 7 and randImage(m, 1): entry i is layerHash of
// PartialInfer(w, img, 0, i). A kernel change that alters a single rounding
// anywhere in the network changes a hash, so these are the regression gate
// for "faster but bit-identical" work on the tensor kernels. They were
// recorded with the portable Go sgemm and generic pooling loops, and must
// not be re-recorded to make a kernel change pass.
var goldenLayerHashes = map[string][]string{
	"tiny-alexnet": {
		"dae6244221de02ca",
		"e5e0d316dd74892a",
		"e6410a707f001c32",
		"efec4883c8c61ec9",
		"62ed296e0c699100",
		"6a5ee08b5101b3d3",
		"0ec7db26a1979a18",
		"b204547e1a38b4e3",
		"a81f7f6aeac481a2",
		"61dafee601d61b99",
		"f3bd18867c0e986a",
	},
	"tiny-vgg16": {
		"04f1ae62dce8238c",
		"a626b644f71ce288",
		"b7d4fcad1d539e74",
		"ce81dcdeffcd11d1",
		"fcbf5989247543b4",
		"1d38c89f4b00e2c1",
		"6fd00c38f065289d",
		"7b9017acef72c48d",
		"6f79b4a219195dcd",
		"29f7cf1a3f6ee0a4",
		"e74ffb79da025efb",
		"be71db1e226da69a",
		"27f48298c14b3686",
		"56d8450de002fe8f",
		"3256dcabc4718508",
		"2c2fde200f9687ac",
		"848484db2d6af307",
		"9ea8fd82e7f4da48",
		"98798fe0e69938bf",
		"217d4a14f2a1af5b",
		"98ea770c7ae5e15f",
	},
	"tiny-resnet50": {
		"622e3d8868cd305e",
		"eacb521468d98c16",
		"6ed6378503820853",
		"39c5b42fa99338b5",
		"c63275035add6bb9",
		"b738c6786e7b2f64",
		"8c657cedcfbe668c",
		"1a47e38b23ccc4c8",
		"167bada56ddc0c21",
		"63806c45b6b56197",
		"0c0808f80ebcfbfb",
		"2228889160aa0a3d",
		"70b7e178914af268",
		"bcf0b2d98026a9b1",
		"05115b0a69860a8b",
		"b0dacbb84ab07cfb",
		"3f391c37e3a149e9",
		"0819531e080ceb63",
		"53d6b44a486c84aa",
		"4448e9581b1235ef",
	},
	"tiny-densenet": {
		"6e60ee6ebf22fcae",
		"353255dc0abca70b",
		"ed5cdd687d565fa4",
		"31de6525eb45bb91",
		"24d3e26718cfff08",
		"f4f1f8aefa9093bf",
		"28b8d2fd84921269",
		"e8d78045b9c10b65",
	},
}

// layerHash is the first 16 hex digits of the SHA-256 of a tensor's shape and
// the IEEE-754 bit patterns of its elements.
func layerHash(t *tensor.Tensor) string {
	h := sha256.New()
	var buf [4]byte
	for _, d := range t.Shape() {
		binary.LittleEndian.PutUint32(buf[:], uint32(d))
		h.Write(buf[:])
	}
	for _, v := range t.Data() {
		binary.LittleEndian.PutUint32(buf[:], math.Float32bits(v))
		h.Write(buf[:])
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// TestGoldenLayerHashes asserts every layer of every tiny model reproduces the
// recorded bits. Only amd64 asserts: elsewhere the compiler may fuse the
// BatchNorm multiply-add into an FMA, which rounds once instead of twice.
func TestGoldenLayerHashes(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("golden hashes are recorded on amd64; on %s the compiler may fuse BatchNorm's multiply-add", runtime.GOARCH)
	}
	for _, name := range []string{"tiny-alexnet", "tiny-vgg16", "tiny-resnet50", "tiny-densenet"} {
		want := goldenLayerHashes[name]
		t.Run(name, func(t *testing.T) {
			m, err := ByName(name)
			if err != nil {
				t.Fatal(err)
			}
			w, err := m.RealizeWeights(7)
			if err != nil {
				t.Fatal(err)
			}
			img := randImage(m, 1)
			if len(want) != m.NumLayers() {
				t.Fatalf("%d golden hashes for %d layers", len(want), m.NumLayers())
			}
			for i, l := range m.Layers {
				out, err := m.PartialInfer(w, img.Clone(), 0, i)
				if err != nil {
					t.Fatalf("PartialInfer(0, %d): %v", i, err)
				}
				if got := layerHash(out); got != want[i] {
					t.Errorf("layer %d (%s): hash %s, want %s", i, l.Name(), got, want[i])
				}
			}
		})
	}
}
