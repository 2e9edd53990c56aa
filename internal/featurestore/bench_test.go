package featurestore

import (
	"testing"

	"repro/internal/data"
)

var checksumSink string

// BenchmarkDataChecksum hashes a 250-row Foods image table, the per-request
// cost core.Spec.DataSum lets a caller that already holds the checksum skip.
func BenchmarkDataChecksum(b *testing.B) {
	_, imageRows, err := data.Generate(data.Foods().WithRows(250))
	if err != nil {
		b.Fatal(err)
	}
	var n int64
	for i := range imageRows {
		n += int64(len(imageRows[i].Image))
	}
	b.SetBytes(n)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		checksumSink = DataChecksum(imageRows)
	}
}
