package hotbench

import "testing"

// BenchmarkRows runs every hot-path row, for example
//
//	go test -run '^$' -bench Rows -benchmem ./internal/hotbench
func BenchmarkRows(b *testing.B) {
	for _, r := range Rows() {
		b.Run(r.Name, r.Bench)
	}
}
