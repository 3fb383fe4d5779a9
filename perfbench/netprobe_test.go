package main

import (
	"context"
	"testing"

	"repro/internal/ghost"
	"repro/internal/grid"
)

// chanFleet is the ghost-fleet workload at test size over the
// in-memory chan transport.
func chanFleet(t *testing.T) *ghostFleet {
	w := &ghostFleet{scratch: t.TempDir(), scheme: "chan", size: 48, grains: 3000}
	if err := w.setup(context.Background()); err != nil {
		t.Fatal(err)
	}
	return w
}

func solveOnce(t *testing.T, w *ghostFleet, op int, probe *netProbe) (*grid.Grid, ghost.Report) {
	t.Helper()
	g := w.init.Clone()
	rep, err := w.solve(context.Background(), g, op, probe)
	if err != nil {
		t.Fatal(err)
	}
	return g, rep
}

// TestProbeTransportTransparent pins that decorating the transport
// changes nothing the fleet computes, that the decorator's counts agree
// with the coordinator's own ledger, and that they repeat exactly.
//
// The coordinator re-sends round 1 to a rank whose PeerJoined event it
// handles after that rank's first dispatch already succeeded, so a run
// can carry a duplicate round frame and its report. The ledger counts
// those duplicates too (Report.Messages), so the repeat check compares
// frames net of them, and bytes per message: on this symmetric
// two-strip grid every round frame has one size and every report
// another, so a duplicate pair leaves bytes per message unchanged.
func TestProbeTransportTransparent(t *testing.T) {
	w := chanFleet(t)
	plainGrid, plainRep := solveOnce(t, w, 1, nil)
	if !plainGrid.Equal(w.want) || plainRep.Topples != w.wantTopples {
		t.Fatal("undecorated fleet solve differs from StabilizeSyncSeq")
	}

	var frames, bytes, msgs [2]int64
	for i := range frames {
		p := &netProbe{ranks: gfRanks, rec: newRecorder(), op: 2 + i}
		g, rep := solveOnce(t, w, 2+i, p)
		if !g.Equal(plainGrid) {
			t.Fatal("decorated fleet solve is not byte-identical to the undecorated one")
		}
		if rep.Result != plainRep.Result || rep.Exchanges != plainRep.Exchanges ||
			rep.OwnedCells != plainRep.OwnedCells || rep.RedundantCells != plainRep.RedundantCells {
			t.Fatalf("decorated report %+v, undecorated %+v", rep, plainRep)
		}
		// The ledger counts rounds sent and reports received; the
		// decorator also sees the final stop frame to each rank.
		got := p.appFrames.Load()
		if want := int64(rep.Messages + rep.Ranks); got != want {
			t.Fatalf("counted %d application frames, the coordinator's ledger implies %d", got, want)
		}
		if uint64(p.appBytes.Load()) != rep.BytesSent {
			t.Fatalf("counted %d payload bytes, the ledger says %d", p.appBytes.Load(), rep.BytesSent)
		}
		if p.busyNS.Load() <= 0 || p.recvWaitNS.Load() <= 0 || p.coordBusy() <= 0 {
			t.Fatalf("probe timings missing: busy %d wait %d coord %v", p.busyNS.Load(), p.recvWaitNS.Load(), p.coordBusy())
		}
		// One coordinator busy span per round: report of the round's
		// last rank to the next round, or to stop after the last round.
		busy := 0
		for _, sp := range p.rec.tr.Spans() {
			if sp.Name == "ghost.coord_busy" {
				busy++
			}
		}
		if busy != rep.Exchanges {
			t.Fatalf("%d coordinator busy spans for %d rounds", busy, rep.Exchanges)
		}
		dups := int64(rep.Messages - 2*rep.Ranks*rep.Exchanges) // duplicate rounds and their reports
		if dups < 0 || dups > int64(2*rep.Ranks) {
			t.Fatalf("%d messages for %d rounds of %d ranks", rep.Messages, rep.Exchanges, rep.Ranks)
		}
		frames[i], bytes[i], msgs[i] = got-dups, p.appBytes.Load(), int64(rep.Messages)
	}
	if frames[0] != frames[1] || bytes[0]*msgs[1] != bytes[1]*msgs[0] {
		t.Fatalf("counts differ between runs: frames %v, bytes %v over messages %v", frames, bytes, msgs)
	}
}
