package ghost

import (
	"bytes"
	"encoding/binary"
	"runtime"
	"testing"

	"repro/internal/grid"
)

// codecGeoms are the rank shapes the codec tests and fuzz seeds use: a
// middle strip, both end strips, and a 2-D block with every side.
var codecGeoms = []geom{
	{K: 2, ownH: 5, ownW: 7, gTop: 2, gBot: 2},
	{K: 1, ownH: 4, ownW: 3, gBot: 1},
	{K: 3, ownH: 6, ownW: 4, gTop: 3},
	{K: 2, ownH: 4, ownW: 5, gTop: 2, gBot: 2, gLeft: 2, gRh: 2},
	{K: 2, ownH: 3, ownW: 3, gTop: 2, gBot: 2, gRh: 2}, // ownH < 2K: the border rows meet
}

// codecWindow is a local window with distinct cell values.
func codecWindow(ge geom) *grid.Grid {
	w := grid.New(ge.localH(), ge.localW())
	for y := 0; y < w.H(); y++ {
		for x, row := 0, w.Row(y); x < len(row); x++ {
			row[x] = uint32(y*1000+x) * 2654435761
		}
	}
	return w
}

// fuzzGeom maps fuzz bytes onto a small valid geometry.
func fuzzGeom(k, h, w, sides uint8) geom {
	K := 1 + int(k%4)
	ge := geom{K: K, ownH: K + int(h%8), ownW: K + int(w%8)}
	for i, side := range []*int{&ge.gTop, &ge.gBot, &ge.gLeft, &ge.gRh} {
		if sides&(1<<i) != 0 {
			*side = K
		}
	}
	return ge
}

func TestGhostFrameRoundTrip(t *testing.T) {
	for _, ge := range codecGeoms {
		sh := newShape(ge)
		src := codecWindow(ge)

		round, got, local, err := decodeLoad(encodeLoad(nil, src, ge, ge.gTop, ge.gLeft, 77))
		if err != nil || round != 77 || got != ge || !local.Equal(src) {
			t.Fatalf("%+v: load round trip: round %d geom %+v err %v", ge, round, got, err)
		}

		dst := grid.New(ge.localH(), ge.localW())
		r, full, bands, err := parseHalo(encodeHalo(nil, src, sh, 0, 0, 9, true), sh)
		if err != nil || r != 9 || !full {
			t.Fatalf("%+v: halo header: %d %v %v", ge, r, full, err)
		}
		for _, b := range sh.bands {
			bands = getRect(bands, dst, b, 0, 0)
		}
		for _, b := range sh.bands {
			for y := b.y0; y < b.y1; y++ {
				if !equalCells(dst.Row(y)[b.x0:b.x1], src.Row(y)[b.x0:b.x1]) {
					t.Fatalf("%+v: band row %d differs after the halo round trip", ge, y)
				}
			}
		}

		for _, full := range []bool{false, true} {
			want := report{round: 5, changes: 3, redundant: 1 << 40, full: full}
			rp, err := decodeReport(encodeReport(nil, want, src, sh, 0, 0), sh)
			if err != nil || rp.round != 5 || rp.changes != 3 || rp.redundant != 1<<40 || rp.full != full {
				t.Fatalf("%+v: report header %+v, err %v", ge, rp, err)
			}
			dst := grid.New(ge.localH(), ge.localW())
			writeReport(dst, rp, sh, 0, 0)
			for _, b := range sh.reportRects(full) {
				for y := b.y0; y < b.y1; y++ {
					if !equalCells(dst.Row(y)[b.x0:b.x1], src.Row(y)[b.x0:b.x1]) {
						t.Fatalf("%+v full=%v: report row %d differs", ge, full, y)
					}
				}
			}
		}
	}
}

func equalCells(a, b []uint32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestHaloFrameIsPerimeterSized pins the point of the protocol: a halo
// frame is header + 4 bytes per band cell, so for strips it is
// header + 4·K·(bands × width) whatever the strip height, and a 2-D
// block's frame grows with its perimeter, not its area.
func TestHaloFrameIsPerimeterSized(t *testing.T) {
	const K, W = 4, 192
	for _, ownH := range []int{4, 48, 96, 1000} {
		for _, c := range []struct {
			ge    geom
			bands int
		}{
			{geom{K: K, ownH: ownH, ownW: W, gBot: K}, 1},
			{geom{K: K, ownH: ownH, ownW: W, gTop: K, gBot: K}, 2},
		} {
			sh := newShape(c.ge)
			src := grid.New(c.ge.localH(), c.ge.localW())
			n := len(encodeHalo(nil, src, sh, 0, 0, 1, false))
			if want := haloHeader + 4*K*(c.bands*W); n != want {
				t.Fatalf("ownH=%d, %d bands: halo frame %d bytes, want %d", ownH, c.bands, n, want)
			}
			// The report carries the K-wide border, not the strip (a
			// strip thinner than 2K is all border, counted once).
			if got, want := sh.borderCells, min(ownH, K*c.bands)*W; got != want {
				t.Fatalf("ownH=%d: report border %d cells, want %d", ownH, got, want)
			}
		}
	}
	for _, side := range []int{8, 64, 512} {
		ge := geom{K: K, ownH: side, ownW: side, gTop: K, gBot: K, gLeft: K, gRh: K}
		sh := newShape(ge)
		if want := 2*K*(side+2*K) + 2*K*side; sh.bandCells != want {
			t.Fatalf("%dx%d block: %d band cells, want %d", side, side, sh.bandCells, want)
		}
	}
}

// TestDecodersRejectUnboundedLengths feeds frames whose length fields
// promise far more than they carry: each must fail before allocating.
func TestDecodersRejectUnboundedLengths(t *testing.T) {
	const k = 1<<32 - 1
	for _, c := range []struct {
		name string
		geom [7]uint32
		body int
	}{
		{"4096x4096 block", [7]uint32{1, 4096, 4096, 1, 1, 1, 1}, 16},
		{"2^32x2^32 block", [7]uint32{1, 1<<32 - 1, 1<<32 - 1, 1, 1, 1, 1}, 16},
		// A 2^33 x 2^33 window: 4·h·w wraps to 0, matching the empty body.
		{"wrapping window", [7]uint32{k, 2, 2, k, k, k, k}, 0},
	} {
		p := make([]byte, loadHeader+c.body)
		for i, v := range c.geom {
			binary.LittleEndian.PutUint32(p[4*i:], v)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < 20; i++ {
			if _, _, _, err := decodeLoad(p); err == nil {
				t.Fatalf("%s: load frame accepted", c.name)
			}
		}
		runtime.ReadMemStats(&after)
		if n := after.TotalAlloc - before.TotalAlloc; n > 64<<10 {
			t.Fatalf("%s: rejecting the load frame allocated %d bytes", c.name, n)
		}
	}
	sh := newShape(codecGeoms[0])
	if _, _, _, err := parseHalo(make([]byte, haloHeader+4*sh.bandCells+4), sh); err == nil {
		t.Fatal("halo frame longer than the bands accepted")
	}
	short := encodeReport(nil, report{full: true}, codecWindow(sh.geom), sh, 0, 0)
	if _, err := decodeReport(short[:len(short)-4], sh); err == nil {
		t.Fatal("truncated full report accepted")
	}
}

func FuzzGhostLoad(f *testing.F) {
	for _, ge := range codecGeoms {
		f.Add(encodeLoad(nil, codecWindow(ge), ge, ge.gTop, ge.gLeft, 3))
	}
	f.Fuzz(func(t *testing.T, p []byte) {
		round, ge, local, err := decodeLoad(p)
		if err != nil {
			return
		}
		if cells := local.H() * local.W(); 4*cells != len(p)-loadHeader {
			t.Fatalf("allocated %d cells for %d payload bytes", cells, len(p)-loadHeader)
		}
		if again := encodeLoad(nil, local, ge, ge.gTop, ge.gLeft, round); !bytes.Equal(again, p) {
			t.Fatalf("re-encoded load differs from its input")
		}
	})
}

func FuzzGhostHalo(f *testing.F) {
	for i, ge := range codecGeoms[:4] {
		f.Add(uint8(ge.K-1), uint8(ge.ownH-ge.K), uint8(ge.ownW-ge.K), sidesOf(ge),
			encodeHalo(nil, codecWindow(ge), newShape(ge), 0, 0, 10+i, i%2 == 0))
	}
	f.Fuzz(func(t *testing.T, k, h, w, sides uint8, p []byte) {
		sh := newShape(fuzzGeom(k, h, w, sides))
		round, full, bands, err := parseHalo(p, sh)
		if err != nil {
			return
		}
		local := grid.New(sh.localH(), sh.localW())
		for _, r := range sh.bands {
			bands = getRect(bands, local, r, 0, 0)
		}
		if again := encodeHalo(nil, local, sh, 0, 0, round, full); !bytes.Equal(again, p) {
			t.Fatalf("re-encoded halo differs from its input")
		}
	})
}

func FuzzGhostReport(f *testing.F) {
	for i, ge := range codecGeoms[:4] {
		rp := report{round: 4 + i, changes: i, redundant: uint64(7 * i), full: i%2 == 1}
		f.Add(uint8(ge.K-1), uint8(ge.ownH-ge.K), uint8(ge.ownW-ge.K), sidesOf(ge),
			encodeReport(nil, rp, codecWindow(ge), newShape(ge), 0, 0))
	}
	f.Fuzz(func(t *testing.T, k, h, w, sides uint8, p []byte) {
		sh := newShape(fuzzGeom(k, h, w, sides))
		rp, err := decodeReport(p, sh)
		if err != nil {
			return
		}
		local := grid.New(sh.localH(), sh.localW())
		writeReport(local, rp, sh, 0, 0)
		if again := encodeReport(nil, rp, local, sh, 0, 0); !bytes.Equal(again, p) {
			t.Fatalf("re-encoded report differs from its input")
		}
	})
}

// sidesOf is the fuzzGeom side mask of ge.
func sidesOf(ge geom) uint8 {
	var m uint8
	for i, v := range []int{ge.gTop, ge.gBot, ge.gLeft, ge.gRh} {
		if v > 0 {
			m |= 1 << i
		}
	}
	return m
}
