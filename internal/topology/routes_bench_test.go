package topology_test

import (
	"testing"

	"rocc/internal/experiments"
	"rocc/internal/sim"
	"rocc/internal/topology"
)

// BenchmarkComputeRoutes times one full route recomputation — the work
// of every reconvergence and most of BuildFatTree — on the §6.3 paper
// fat-tree (90 hosts) and the k=16 scale fat-tree (1024 hosts). Run with
// -benchmem: B/op tracks the set-up allocation the scale runs pay.
func BenchmarkComputeRoutes(b *testing.B) {
	for _, c := range []struct {
		name string
		cfg  topology.FatTreeConfig
	}{
		{"paper", topology.PaperFatTree()},
		{"k16", experiments.ScaleFatTree()},
	} {
		b.Run(c.name, func(b *testing.B) {
			net := topology.BuildFatTree(sim.New(), 1, c.cfg).Net
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				net.ComputeRoutes()
			}
		})
	}
}
