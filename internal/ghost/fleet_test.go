package ghost

import (
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/fault"
	"repro/internal/grid"
	pnet "repro/internal/net"
	"repro/internal/sandpile"
)

// fleetGrid builds the deterministic test workload used throughout.
func fleetGrid(h, w int) *grid.Grid {
	g := grid.New(h, w)
	for y := 0; y < h; y++ {
		row := g.Row(y)
		for x := 0; x < w; x++ {
			row[x] = uint32((y*31 + x*17) % 9)
		}
	}
	g.Row(h / 2)[w/2] = 64
	return g
}

// runFleetCase solves the workload over a goroutine fleet on the chan
// transport and checks the result byte-matches the sequential solver.
func runFleetCase(t *testing.T, opts []Option, workers func(ctx context.Context, addr string)) Report {
	t.Helper()
	ref := fleetGrid(24, 18)
	want := sandpile.StabilizeSyncSeq(ref)

	g := fleetGrid(24, 18)
	rep, err := fleetSolve(g, t.Name(), opts, workers)
	if err != nil {
		t.Fatalf("fleet run: %v", err)
	}
	if !g.Equal(ref) {
		t.Fatal("fleet fixed point differs from the sequential solver")
	}
	if rep.Topples != want.Topples {
		t.Fatalf("fleet topples %d, want %d", rep.Topples, want.Topples)
	}
	return rep
}

// fleetSolve runs g over a goroutine fleet on the chan transport.
func fleetSolve(g *grid.Grid, name string, opts []Option, workers func(ctx context.Context, addr string)) (Report, error) {
	tr, _ := pnet.New("chan")
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	fc := &pnet.FleetConfig{
		Transport: tr,
		Listen:    fmt.Sprintf("ghost-fleet-%s", name),
		Lease:     300 * time.Millisecond,
	}
	if workers != nil {
		var started sync.Once
		fc.Spawn = func(rank int, addr string) error {
			// One spawn call is enough: the helper launches all ranks.
			started.Do(func() { workers(ctx, addr) })
			return nil
		}
		// The helper's workers redial on their own; let the supervisor
		// wait patiently rather than re-invoking Spawn.
		fc.JoinTimeout = 10 * time.Second
	}
	return New(g, append(opts, WithFleet(fc))...).RunContext(ctx)
}

// spawnWorkers launches n rank worker goroutines that dial addr.
func spawnWorkers(tr pnet.Transport, n int) func(ctx context.Context, addr string) {
	return func(ctx context.Context, addr string) {
		for r := 0; r < n; r++ {
			go FleetWorker(ctx, pnet.WorkerConfig{
				Transport: tr, Join: addr, Rank: r,
				Backoff:         pnet.Backoff{Base: 5 * time.Millisecond, Max: 100 * time.Millisecond},
				MaxDialAttempts: 1000,
			})
		}
	}
}

// wantMessages is the exact ledger of a run without faults: one load
// per rank, then a halo frame and a report per rank per round.
func wantMessages(rep Report) int { return rep.Ranks * (1 + 2*rep.Exchanges) }

func TestFleet1DMatchesSequential(t *testing.T) {
	tr, _ := pnet.New("chan")
	rep := runFleetCase(t, []Option{WithRanks(3), WithWidth(2)}, spawnWorkers(tr, 3))
	if rep.Ranks != 3 || rep.Recoveries != 0 || rep.Messages != wantMessages(rep) {
		t.Fatalf("report: %+v (want %d messages)", rep, wantMessages(rep))
	}
	if rep.OwnedCells == 0 || rep.RedundantCells == 0 {
		t.Fatalf("work accounting missing: %+v", rep)
	}
}

func TestFleet2DMatchesSequential(t *testing.T) {
	tr, _ := pnet.New("chan")
	rep := runFleetCase(t, []Option{WithProcessGrid(2, 3), WithWidth(2)}, spawnWorkers(tr, 6))
	if rep.Ranks != 6 || rep.Messages != wantMessages(rep) {
		t.Fatalf("report: %+v (want %d messages)", rep, wantMessages(rep))
	}
}

// TestFleetLoadsEachRankOnce pins the dispatch ledger: however the
// ranks' registrations interleave with the coordinator's start, each
// incarnation is loaded once and each round is sent once, so a run
// without kills has an exact message count.
func TestFleetLoadsEachRankOnce(t *testing.T) {
	for i := 0; i < 5; i++ {
		tr, _ := pnet.New("chan")
		rep := runFleetCase(t, []Option{WithRanks(2), WithWidth(3)}, spawnWorkers(tr, 2))
		if rep.Messages != wantMessages(rep) {
			t.Fatalf("run %d: %d messages over %d rounds of %d ranks, want %d",
				i, rep.Messages, rep.Exchanges, rep.Ranks, wantMessages(rep))
		}
	}
}

// TestFleetWorkerAnswersRepeatedRoundWithoutStepping drives one worker
// by hand: a halo frame for the round it has just computed gets the
// same report back, and the block is not stepped again — the next
// round is still the one it expects.
func TestFleetWorkerAnswersRepeatedRoundWithoutStepping(t *testing.T) {
	tr, _ := pnet.New("chan")
	co, err := pnet.NewCoordinator(pnet.FleetConfig{Transport: tr, Listen: "ghost-fleet-repeat",
		Workers: 1, Proto: GhostProto, Lease: time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer co.Close()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan error, 1)
	go func() { done <- FleetWorker(ctx, pnet.WorkerConfig{Transport: tr, Join: co.Addr()}) }()

	g := fleetGrid(12, 10)
	ge := geom{K: 2, ownH: 12, ownW: 10}
	sh := newShape(ge)
	next := func() pnet.Event {
		for ev := range co.Events() {
			switch ev.Kind {
			case pnet.PeerMsg, pnet.PeerJoined:
				return ev
			case pnet.PeerDead:
				t.Fatalf("worker died: %v", <-done)
			}
		}
		t.Fatal("coordinator closed")
		return pnet.Event{}
	}
	if ev := next(); ev.Kind != pnet.PeerJoined {
		t.Fatalf("want join, got %+v", ev)
	}
	co.Send(0, pnet.Msg{Type: msgLoad, Payload: encodeLoad(nil, g, ge, 0, 0, 0)})
	halo := func(round int) []byte {
		co.Send(0, pnet.Msg{Type: msgHalo, Payload: encodeHalo(nil, g, sh, 0, 0, round, true)})
		ev := next()
		rp, err := decodeReport(ev.Msg.Payload, sh)
		if err != nil || rp.round != round || !rp.full {
			t.Fatalf("round %d: report %+v, err %v", round, rp, err)
		}
		return ev.Msg.Payload
	}
	first := halo(1)
	if again := halo(1); !bytes.Equal(again, first) {
		t.Fatal("repeated round answered with a different report")
	}
	halo(2) // would be refused as a repeat had the worker stepped twice
	co.Send(0, pnet.Msg{Type: msgStop})
	if err := <-done; err != nil {
		t.Fatalf("worker: %v", err)
	}
}

// TestFleetMatchesInProcessRun pins the tentpole equality: the fleet
// run and the classic goroutine-rank run agree on every reported
// quantity that is defined for both, on strips and on blocks.
func TestFleetMatchesInProcessRun(t *testing.T) {
	for _, pg := range []struct{ r, c int }{{3, 1}, {2, 2}} {
		t.Run(fmt.Sprintf("%dx%d", pg.r, pg.c), func(t *testing.T) {
			opts := []Option{WithProcessGrid(pg.r, pg.c), WithWidth(2)}
			if pg.c == 1 {
				opts = []Option{WithRanks(pg.r), WithWidth(2)}
			}
			gIn := fleetGrid(24, 18)
			inRep, err := New(gIn, opts...).Run()
			if err != nil {
				t.Fatal(err)
			}
			tr, _ := pnet.New("chan")
			rep := runFleetCase(t, opts, spawnWorkers(tr, pg.r*pg.c))
			if rep.Iterations != inRep.Iterations || rep.Topples != inRep.Topples ||
				rep.Absorbed != inRep.Absorbed || rep.Exchanges != inRep.Exchanges {
				t.Fatalf("fleet %+v != in-process %+v", rep, inRep)
			}
			// Same decomposition, same rounds: the redundant-compute
			// accounting must agree too.
			if rep.RedundantCells != inRep.RedundantCells || rep.OwnedCells != inRep.OwnedCells {
				t.Fatalf("work accounting: fleet %+v != in-process %+v", rep, inRep)
			}
		})
	}
}

// TestFleetWorkerDeathAndRejoin kills worker incarnations mid-run (by
// cancelling their contexts — the goroutine analogue of SIGKILL) and
// relies on respawn + rejoin re-dispatch; the fixed point must still
// match the sequential solver exactly.
func TestFleetWorkerDeathAndRejoin(t *testing.T) {
	// A tall center pile takes many rounds to spread, so kills land
	// mid-run rather than after the fixed point.
	mk := func() *grid.Grid {
		g := grid.New(40, 30)
		g.Row(20)[15] = 200000
		return g
	}
	ref := mk()
	want := sandpile.StabilizeSyncSeq(ref)

	tr, _ := pnet.New("chan")
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var kills atomic.Int64
	var launched sync.Once
	fc := &pnet.FleetConfig{
		Transport:   tr,
		Listen:      "ghost-fleet-death",
		Lease:       500 * time.Millisecond,
		JoinTimeout: 10 * time.Second,
		Spawn: func(rank int, addr string) error {
			launched.Do(func() { launchCrashyWorkers(ctx, tr, addr, &kills) })
			return nil
		},
	}
	g := mk()
	rep, err := New(g, WithRanks(3), WithWidth(1), WithMaxIters(10_000_000),
		WithFleet(fc)).RunContext(ctx)
	if err != nil {
		t.Fatalf("fleet run: %v", err)
	}
	if !g.Equal(ref) || rep.Topples != want.Topples {
		t.Fatalf("post-crash run diverged: topples %d want %d", rep.Topples, want.Topples)
	}
	if kills.Load() == 0 {
		t.Skip("run finished before any kill landed; nothing exercised")
	}
	if rep.Recoveries == 0 {
		t.Fatalf("killed %d worker incarnations but Recoveries=0", kills.Load())
	}
}

// launchCrashyWorkers starts 3 rank workers; rank 1's first three
// incarnations are killed shortly after starting.
func launchCrashyWorkers(ctx context.Context, tr pnet.Transport, addr string, kills *atomic.Int64) {
	for r := 0; r < 3; r++ {
		go func(rank int) {
			for incarnation := 1; ctx.Err() == nil; incarnation++ {
				wctx, wcancel := context.WithCancel(ctx)
				if rank == 1 && incarnation <= 3 {
					go func(delay time.Duration) {
						time.Sleep(delay)
						kills.Add(1)
						wcancel()
					}(time.Duration(incarnation) * 3 * time.Millisecond)
				}
				FleetWorker(wctx, pnet.WorkerConfig{
					Transport: tr, Join: addr, Rank: rank,
					Backoff:         pnet.Backoff{Base: time.Millisecond, Max: 20 * time.Millisecond},
					MaxDialAttempts: 1000,
				})
				wcancel()
				if rank != 1 || incarnation > 3 {
					return
				}
			}
		}(r)
	}
}

// TestFleetDeathOnRoundRollsBack kills rank 1's first worker the moment
// it receives the halo frame of round snapshotEvery+3 — a trigger on
// the protocol's own clock, not the wall clock. The coordinator must
// roll every rank back to the round-snapshotEvery snapshot and replay
// to the exact fixed point.
func TestFleetDeathOnRoundRollsBack(t *testing.T) {
	mk := func() *grid.Grid {
		g := grid.New(40, 30)
		g.Row(20)[15] = 200000
		return g
	}
	ref := mk()
	want := sandpile.StabilizeSyncSeq(ref)

	tr, _ := pnet.New("chan")
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var fired atomic.Bool
	fc := &pnet.FleetConfig{
		Transport: tr,
		Listen:    "ghost-fleet-round-kill",
		Lease:     time.Second,
		Backoff:   pnet.Backoff{Base: time.Millisecond, Max: 10 * time.Millisecond},
		Spawn: func(rank int, addr string) error {
			wctx, wcancel := context.WithCancel(ctx)
			var wt pnet.Transport = tr
			if rank == 1 {
				wt = killOnRound{Transport: tr, round: snapshotEvery + 3, fired: &fired, kill: wcancel}
			}
			go func() {
				defer wcancel()
				FleetWorker(wctx, pnet.WorkerConfig{Transport: wt, Join: addr, Rank: rank})
			}()
			return nil
		},
	}
	g := mk()
	rep, err := New(g, WithRanks(3), WithWidth(1), WithMaxIters(10_000_000),
		WithFleet(fc)).RunContext(ctx)
	if err != nil {
		t.Fatalf("fleet run: %v", err)
	}
	if !fired.Load() {
		t.Fatalf("the run ended (%d rounds) before round %d", rep.Exchanges, snapshotEvery+3)
	}
	if !g.Equal(ref) || rep.Topples != want.Topples {
		t.Fatalf("post-crash run diverged: topples %d want %d", rep.Topples, want.Topples)
	}
	if rep.Recoveries < 1 {
		t.Fatalf("worker killed but Recoveries=%d", rep.Recoveries)
	}
	// The rounds after the snapshot ran twice, and the ledger says so.
	if rounds := rep.Iterations / rep.GhostWidth; rep.Exchanges < rounds+3 {
		t.Fatalf("%d exchanges for %d committed rounds: the replay is not counted", rep.Exchanges, rounds)
	}
}

// killOnRound decorates a worker's transport: the first time one of its
// connections receives the halo frame for round, kill cancels the
// worker and the frame is lost with it.
type killOnRound struct {
	pnet.Transport
	round int
	fired *atomic.Bool
	kill  func()
}

func (t killOnRound) Dial(addr string) (pnet.Conn, error) {
	c, err := t.Transport.Dial(addr)
	if err != nil {
		return nil, err
	}
	return &killConn{Conn: c, t: t}, nil
}

type killConn struct {
	pnet.Conn
	t killOnRound
}

func (c *killConn) Recv(timeout time.Duration) (pnet.Msg, error) {
	m, err := c.Conn.Recv(timeout)
	if err == nil && m.Type == msgHalo && len(m.Payload) >= 8 &&
		binary.LittleEndian.Uint64(m.Payload) == uint64(c.t.round) && c.t.fired.CompareAndSwap(false, true) {
		c.t.kill()
		c.Conn.Close()
		return pnet.Msg{}, pnet.ErrTruncated
	}
	return m, err
}

// TestFleetCheckpointResume cuts a fleet run short with a checkpointer
// due every 5 rounds, then resumes it on a fresh fleet. The rounds the
// checkpointer is due, and the budget's last round, pull whole blocks,
// so the cut grid and every snapshot are exact global states.
func TestFleetCheckpointResume(t *testing.T) {
	init := sandpile.Center(9000).Build(48, 40, nil)
	ref := init.Clone()
	want, err := New(ref, WithRanks(3), WithWidth(2)).Run()
	if err != nil {
		t.Fatal(err)
	}
	budget := want.Iterations / 2
	refCut := init.Clone()
	if _, err := New(refCut, WithRanks(3), WithWidth(2), WithMaxIters(budget)).Run(); err != nil {
		t.Fatal(err)
	}

	tr, _ := pnet.New("chan")
	dir := t.TempDir()
	cut := init.Clone()
	if _, err := fleetSolve(cut, "ckpt-cut", []Option{WithRanks(3), WithWidth(2), WithMaxIters(budget),
		WithCheckpoint(ghostCheckpointer(t, dir, 5))}, spawnWorkers(tr, 3)); err != nil {
		t.Fatalf("interrupted segment: %v", err)
	}
	if !cut.Equal(refCut) {
		t.Fatalf("fleet run cut at %d iterations differs from the in-process one: %v", budget, cut.Diff(refCut, 5))
	}

	g := init.Clone()
	got, err := fleetSolve(g, "ckpt-resume", []Option{WithRanks(3), WithWidth(2),
		WithCheckpoint(ghostCheckpointer(t, dir, 5))}, spawnWorkers(tr, 3))
	if err != nil {
		t.Fatalf("resumed segment: %v", err)
	}
	if got.Iterations != want.Iterations || got.Topples != want.Topples || !g.Equal(ref) {
		t.Fatalf("resumed run: iterations %d topples %d, want %d/%d (grid equal: %v)",
			got.Iterations, got.Topples, want.Iterations, want.Topples, g.Equal(ref))
	}
	if got.Exchanges >= want.Exchanges {
		t.Fatalf("resumed run took %d rounds of %d: it did not resume", got.Exchanges, want.Exchanges)
	}
}

// TestFleetLostRankFallsBackLocally spawns no process for rank 1:
// after MaxRespawns join timeouts the coordinator must declare it lost
// and compute its strip itself, still reaching the exact fixed point.
func TestFleetLostRankFallsBackLocally(t *testing.T) {
	ref := fleetGrid(24, 18)
	want := sandpile.StabilizeSyncSeq(ref)
	g := fleetGrid(24, 18)
	tr, _ := pnet.New("chan")
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	fc := &pnet.FleetConfig{
		Transport:   tr,
		Listen:      "ghost-fleet-lost",
		Lease:       200 * time.Millisecond,
		JoinTimeout: 50 * time.Millisecond,
		MaxRespawns: 2,
		Backoff:     pnet.Backoff{Base: 2 * time.Millisecond, Max: 10 * time.Millisecond},
		Spawn: func(rank int, addr string) error {
			if rank == 1 {
				return nil // never comes up
			}
			go FleetWorker(ctx, pnet.WorkerConfig{
				Transport: tr, Join: addr, Rank: rank,
				Backoff:         pnet.Backoff{Base: 5 * time.Millisecond, Max: 50 * time.Millisecond},
				MaxDialAttempts: 1000,
			})
			return nil
		},
	}
	rep, err := New(g, WithRanks(3), WithWidth(2), WithFleet(fc)).RunContext(ctx)
	if err != nil {
		t.Fatalf("fleet run: %v", err)
	}
	if !g.Equal(ref) || rep.Topples != want.Topples {
		t.Fatalf("degraded run diverged: topples %d want %d", rep.Topples, want.Topples)
	}
}

func TestFleetRejectsFaultInjection(t *testing.T) {
	tr, _ := pnet.New("chan")
	g := fleetGrid(12, 12)
	_, err := New(g, WithRanks(2), WithWidth(1),
		WithFleet(&pnet.FleetConfig{Transport: tr, Listen: "ghost-fleet-inj"}),
		WithFaults(&fault.Plan{Seed: 1})).Run()
	if err == nil {
		t.Fatal("fleet+faults accepted")
	}
}
