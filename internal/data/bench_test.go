package data

import "testing"

// BenchmarkGenerate synthesizes the 250-row Foods dataset a warm /run
// serves, the per-request cost vista-server's dataset memo removes.
func BenchmarkGenerate(b *testing.B) {
	spec := Foods().WithRows(250)
	for i := 0; i < b.N; i++ {
		if _, _, err := Generate(spec); err != nil {
			b.Fatal(err)
		}
	}
}
