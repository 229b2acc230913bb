package cover

import (
	"testing"

	"prpart/internal/basepart"
	"prpart/internal/connmat"
	"prpart/internal/synthetic"
)

// BenchmarkCoverSets measures candidate-set enumeration — the covering
// loop every cold solve runs before its search — over the first eight
// designs of the seed-1 synthetic corpus, one op covering all eight.
// prbench -json records the same loop as the cover_sets benchmark.
func BenchmarkCoverSets(b *testing.B) {
	designs := synthetic.Generate(1, 8)
	lists := make([][]basepart.BasePartition, len(designs))
	mats := make([]*connmat.Matrix, len(designs))
	for i, d := range designs {
		mats[i] = connmat.New(d)
		parts, err := basepart.BasePartitions(mats[i])
		if err != nil {
			b.Fatal(err)
		}
		lists[i] = Order(parts)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for k := range lists {
			if len(Sets(lists[k], mats[k])) == 0 {
				b.Fatal("no candidate sets")
			}
		}
	}
}
