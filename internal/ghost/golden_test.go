package ghost

import (
	"encoding/binary"
	"flag"
	"fmt"
	"hash/fnv"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/fault"
	"repro/internal/grid"
	"repro/internal/sandpile"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/strips.golden")

// gridDigest is an FNV-64a hash of g's cells in row-major order.
func gridDigest(g *grid.Grid) string {
	h := fnv.New64a()
	var b [4]byte
	for y := 0; y < g.H(); y++ {
		for _, v := range g.Row(y) {
			binary.LittleEndian.PutUint32(b[:], v)
			h.Write(b[:])
		}
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// TestStripRunsMatchGolden pins what a WithRanks (strip) run reports —
// the fields the peachyd sandpile-ghost job returns — against a
// recording made by the original strip runtime: Report.String(),
// OwnedCells, the fault schedule and the final grid, byte for byte.
// Regenerate with `go test ./internal/ghost -run StripRunsMatchGolden
// -update` only when a change to the reported numbers is intended.
func TestStripRunsMatchGolden(t *testing.T) {
	crash, err := fault.Parse("crash=1@5")
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name  string
		build func() *grid.Grid
		opts  []Option
	}{
		{"center64-r1-k1", func() *grid.Grid { return sandpile.Center(20000).Build(64, 64, nil) },
			[]Option{WithRanks(1), WithWidth(1)}},
		{"center64-r2-k1", func() *grid.Grid { return sandpile.Center(20000).Build(64, 64, nil) },
			[]Option{WithRanks(2), WithWidth(1)}},
		{"center64-r4-k2", func() *grid.Grid { return sandpile.Center(20000).Build(64, 64, nil) },
			[]Option{WithRanks(4), WithWidth(2)}},
		{"center64-r4-k4", func() *grid.Grid { return sandpile.Center(20000).Build(64, 64, nil) },
			[]Option{WithRanks(4), WithWidth(4)}},
		// 50 rows over 3 ranks: 17/17/16, larger strips first.
		{"random50x30-r3-k2", func() *grid.Grid {
			return sandpile.Random(8).Build(50, 30, rand.New(rand.NewSource(9)))
		}, []Option{WithRanks(3), WithWidth(2)}},
		// A grid narrower than K: strips have no column ghosts, so
		// the width never limits K.
		{"narrow40x2-r2-k4", func() *grid.Grid {
			return sandpile.Random(12).Build(40, 2, rand.New(rand.NewSource(3)))
		}, []Option{WithRanks(2), WithWidth(4)}},
		{"fault48x40-r4-k2-crash1@5", func() *grid.Grid { g, _ := faultGrid(t); return g },
			[]Option{WithRanks(4), WithWidth(2), WithFaults(crash), WithHeartbeat(300 * time.Millisecond)}},
	}
	var b strings.Builder
	for _, c := range cases {
		g := c.build()
		rep, err := New(g, c.opts...).Run()
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		fmt.Fprintf(&b, "== %s\n%s\nowned=%d\ngrid=%s\n", c.name, rep, rep.OwnedCells, gridDigest(g))
		for _, s := range rep.FaultSchedule {
			fmt.Fprintf(&b, "fault %s\n", s)
		}
	}
	got := b.String()

	path := filepath.Join("testdata", "strips.golden")
	if *updateGolden {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := 0; i < max(len(gl), len(wl)); i++ {
			var g, w string
			if i < len(gl) {
				g = gl[i]
			}
			if i < len(wl) {
				w = wl[i]
			}
			if g != w {
				t.Fatalf("%s line %d:\n got: %s\nwant: %s", path, i+1, g, w)
			}
		}
	}
}
