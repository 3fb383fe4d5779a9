package main

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/ghost"
	"repro/internal/grid"
	pnet "repro/internal/net"
	"repro/internal/sandpile"
)

// ghost-fleet: one ghost-cell sandpile solve per operation over a
// two-rank fleet on the unix transport. Both rank workers are
// ghost.FleetWorker goroutines in this process, launched through
// FleetConfig.Spawn. No mapreduce or job code runs. The input is the
// fixed sandpile.Center(30000) pile, so the seed does not change it.
const (
	gfSize   = 192
	gfGrains = 30000
	gfRanks  = 2
	gfWidth  = 4
)

type ghostFleet struct {
	scratch string
	scheme  string // transport: "unix" here, "chan" in tests
	size    int
	grains  uint32

	init        *grid.Grid
	want        *grid.Grid // the oracle: sandpile.StabilizeSyncSeq of init
	wantTopples uint64
	seqRef      time.Duration

	ops    int
	probes []gfSample
	mem    []memSample
}

func newGhostFleet(_ int64, scratch string) workload {
	return &ghostFleet{scratch: scratch, scheme: "unix", size: gfSize, grains: gfGrains}
}

func (w *ghostFleet) setup(context.Context) error {
	w.init = sandpile.Center(w.grains).Build(w.size, w.size, nil)
	w.want = w.init.Clone()
	t0 := time.Now()
	w.wantTopples = sandpile.StabilizeSyncSeq(w.want).Topples
	w.seqRef = time.Since(t0)
	return nil
}

// gfSample is one traced solve.
type gfSample struct {
	rep                         ghost.Report
	frames, bytes, heartbeats   int64
	send, recvWait, busy, coord time.Duration
}

func (w *ghostFleet) run(ctx context.Context, d time.Duration, rec *recorder) (phase, error) {
	p := serialRun(ctx, d, &w.ops, rec != nil, &w.mem, func(op int) (time.Duration, error) {
		g := w.init.Clone()
		var probe *netProbe
		if rec != nil {
			probe = &netProbe{ranks: gfRanks, rec: rec, op: op}
		}
		t0 := time.Now()
		rep, err := w.solve(ctx, g, op, probe)
		lat := time.Since(t0)
		if err == nil && (!g.Equal(w.want) || rep.Topples != w.wantTopples) {
			err = fmt.Errorf("ghost-fleet: fixed point differs from StabilizeSyncSeq (topples %d, want %d)",
				rep.Topples, w.wantTopples)
		}
		if err == nil && rec != nil {
			rec.span(probe.row(0, "solve (coordinator)"), "bench.solve", op, t0, time.Now())
			w.probes = append(w.probes, gfSample{
				rep: rep, frames: probe.appFrames.Load(), bytes: probe.appBytes.Load(),
				heartbeats: probe.heartbeats.Load(), send: time.Duration(probe.sendNS.Load()),
				recvWait: time.Duration(probe.recvWaitNS.Load()), busy: time.Duration(probe.busyNS.Load()),
				coord: probe.coordBusy(),
			})
		}
		return lat, err
	})
	p.namedMetrics = []line{{name: "ghost_solve_s", unit: "s", value: quantile(p.lat, 0.5).Seconds(),
		note: fmt.Sprintf("median, n=%d", len(p.lat))}}
	return p, nil
}

// solve runs one fleet solve of g and waits for its workers to exit.
// A non-nil probe decorates the transport of the coordinator and of
// every worker.
func (w *ghostFleet) solve(ctx context.Context, g *grid.Grid, op int, probe *netProbe) (ghost.Report, error) {
	tr, err := pnet.New(w.scheme)
	if err != nil {
		return ghost.Report{}, err
	}
	transport := func(rank int) pnet.Transport {
		if probe == nil {
			return tr
		}
		return probeTransport{inner: tr, p: probe, rank: rank}
	}
	sock := filepath.Join(w.scratch, fmt.Sprintf("ghost-%d-%d.sock", os.Getpid(), op))
	os.Remove(sock) // a socket left by a killed earlier run
	wctx, cancel := context.WithCancel(ctx)
	var (
		wg      sync.WaitGroup
		mu      sync.Mutex
		workErr error
	)
	fc := &pnet.FleetConfig{
		Transport: transport(-1),
		Listen:    sock,
		Spawn: func(rank int, addr string) error {
			wg.Add(1)
			go func() {
				defer wg.Done()
				err := ghost.FleetWorker(wctx, pnet.WorkerConfig{Transport: transport(rank), Join: addr, Rank: rank})
				if err != nil && !errors.Is(err, context.Canceled) {
					mu.Lock()
					workErr = errors.Join(workErr, fmt.Errorf("rank %d worker: %w", rank, err))
					mu.Unlock()
				}
			}()
			return nil
		},
	}
	t0 := time.Now()
	rep, err := ghost.New(g, ghost.WithRanks(gfRanks), ghost.WithWidth(gfWidth), ghost.WithFleet(fc)).RunContext(ctx)
	if probe != nil {
		probe.span(probe.row(0, "solve (coordinator)"), "ghost.solve", t0, time.Now())
	}
	// The coordinator has sent stop and closed; the supervisors that
	// call Spawn have exited, so the workers are all counted in wg.
	cancel()
	wg.Wait()
	if err == nil && rep.Recoveries > 0 {
		err = fmt.Errorf("ghost-fleet: %d unexpected rank recoveries", rep.Recoveries)
	}
	return rep, errors.Join(err, workErr)
}

func (w *ghostFleet) layers() map[string]float64 {
	col := func(f func(gfSample) float64) float64 {
		xs := make([]float64, len(w.probes))
		for i, s := range w.probes {
			xs[i] = f(s)
		}
		return median(xs)
	}
	rounds := func(s gfSample) float64 { return float64(s.rep.Exchanges) }
	allocMB, _ := memMedians(w.mem)
	return map[string]float64{
		"net.frames_per_round":  col(func(s gfSample) float64 { return float64(s.frames) / rounds(s) }),
		"net.bytes_per_round":   col(func(s gfSample) float64 { return float64(s.bytes) / rounds(s) }),
		"net.heartbeats":        col(func(s gfSample) float64 { return float64(s.heartbeats) }),
		"net.send_us_per_frame": col(func(s gfSample) float64 { return float64(s.send) / float64(time.Microsecond) / float64(s.frames) }),
		"net.recv_wait_s":       col(func(s gfSample) float64 { return s.recvWait.Seconds() }),
		"ghost.rounds":          col(rounds),
		"ghost.owned_cells":     col(func(s gfSample) float64 { return float64(s.rep.OwnedCells) }),
		"ghost.redundant_cells": col(func(s gfSample) float64 { return float64(s.rep.RedundantCells) }),
		"ghost.worker_busy_s":   col(func(s gfSample) float64 { return s.busy.Seconds() }),
		"ghost.coord_busy_s":    col(func(s gfSample) float64 { return s.coord.Seconds() }),
		"ghost.seq_ref_s":       w.seqRef.Seconds(),
		"ghost.alloc_mb":        allocMB,
	}
}

func (w *ghostFleet) close() {}
