package ghost

import (
	"context"
	"fmt"
	"path/filepath"
	"sync"
	"testing"

	pnet "repro/internal/net"
	"repro/internal/sandpile"
)

// BenchmarkGhostWidthSweep measures the ghost-width trade-off
// end-to-end: each sub-benchmark stabilizes the same pile at a
// different K (experiment E9's timing axis).
func BenchmarkGhostWidthSweep(b *testing.B) {
	init := sandpile.Center(30000).Build(256, 256, nil)
	for _, k := range []int{1, 2, 4, 8, 16} {
		b.Run(fmt.Sprintf("K=%d", k), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				g := init.Clone()
				b.StartTimer()
				if _, err := New(g, WithRanks(4), WithWidth(k)).Run(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkHaloExchange2D makes the coalesced-halo savings visible:
// allocs/op counts one buffer per message (K-row payloads are packed
// into a single contiguous buffer) instead of one per halo row, at a
// corner-carrying K where the per-row cost used to dominate.
func BenchmarkHaloExchange2D(b *testing.B) {
	init := sandpile.Center(40000).Build(128, 128, nil)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		g := init.Clone()
		b.StartTimer()
		if _, err := New(g, WithProcessGrid(2, 2), WithWidth(8)).Run(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRankScaling measures strong scaling over simulated ranks.
func BenchmarkRankScaling(b *testing.B) {
	init := sandpile.Center(30000).Build(256, 256, nil)
	for _, ranks := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("ranks=%d", ranks), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				g := init.Clone()
				b.StartTimer()
				if _, err := New(g, WithRanks(ranks), WithWidth(4)).Run(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkGhostFleet runs one solve per op over each transport, the
// in-process ranks alongside as the yardstick: 192x192, 4 strips,
// K=4, the fleet's workers as goroutines launched through Spawn.
func BenchmarkGhostFleet(b *testing.B) {
	init := sandpile.Center(30000).Build(192, 192, nil)
	const ranks, k = 4, 4
	b.Run("inproc", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := New(init.Clone(), WithRanks(ranks), WithWidth(k)).Run(); err != nil {
				b.Fatal(err)
			}
		}
	})
	for _, scheme := range []string{"chan", "unix", "tcp"} {
		b.Run(scheme, func(b *testing.B) {
			tr, err := pnet.New(scheme)
			if err != nil {
				b.Fatal(err)
			}
			dir := b.TempDir()
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				addr := map[string]string{
					"chan": fmt.Sprintf("bench-ghost-fleet-%d", i),
					"unix": filepath.Join(dir, fmt.Sprintf("%d.sock", i)),
					"tcp":  "127.0.0.1:0",
				}[scheme]
				ctx, cancel := context.WithCancel(context.Background())
				var wg sync.WaitGroup
				fc := &pnet.FleetConfig{Transport: tr, Listen: addr,
					Spawn: func(rank int, addr string) error {
						wg.Add(1)
						go func() {
							defer wg.Done()
							FleetWorker(ctx, pnet.WorkerConfig{Transport: tr, Join: addr, Rank: rank})
						}()
						return nil
					}}
				_, err := New(init.Clone(), WithRanks(ranks), WithWidth(k), WithFleet(fc)).RunContext(ctx)
				cancel()
				wg.Wait()
				if err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
