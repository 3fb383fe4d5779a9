package main

// fleet.go is the real-process fleet mode: instead of kill–resume over
// durable checkpoints, the driver runs a coordinator in-process, spawns
// its workers as subprocesses of itself joined over a socket transport,
// SIGKILLs some of them mid-run (ghost kills are timed by the
// coordinator's committed round, wordcount kills by the wall clock),
// and asserts the final state is
// byte-identical to a clean in-process run of the same workload. This
// is the end-to-end proof for internal/net: leases detect the deaths,
// the supervisor respawns the ranks, and rejoin (a ghost rollback to
// the last snapshot, a mapreduce task re-dispatch) keeps the
// computation exact.

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/ghost"
	"repro/internal/mapreduce"
	pnet "repro/internal/net"
	"repro/internal/obs"
	"repro/internal/sandpile"
)

var fleetWorkloads = []string{"ghost", "ghost2d", "wordcount"}

// fleetProcs tracks the live worker subprocess per rank so the killer
// can SIGKILL one and the cleanup can reap the rest.
type fleetProcs struct {
	mu   sync.Mutex
	cmds map[int]*exec.Cmd
}

func (f *fleetProcs) put(rank int, cmd *exec.Cmd) {
	f.mu.Lock()
	f.cmds[rank] = cmd
	f.mu.Unlock()
}

// kill SIGKILLs the rank's current process; reports whether a process
// was there to kill.
func (f *fleetProcs) kill(rank int) bool {
	f.mu.Lock()
	cmd := f.cmds[rank]
	f.mu.Unlock()
	if cmd == nil || cmd.Process == nil {
		return false
	}
	return cmd.Process.Kill() == nil
}

func (f *fleetProcs) killAll() {
	f.mu.Lock()
	defer f.mu.Unlock()
	for _, cmd := range f.cmds {
		if cmd != nil && cmd.Process != nil {
			_ = cmd.Process.Kill()
		}
	}
}

// fleetSpawn builds the FleetConfig.Spawn hook: self-exec a worker
// subprocess pointed at the coordinator's address.
func fleetSpawn(self, workload, scheme string, procs *fleetProcs, quick bool) func(rank int, addr string) error {
	return func(rank int, addr string) error {
		args := []string{
			"-fleet-worker", workload,
			"-transport", scheme,
			"-join", addr,
			"-rank", strconv.Itoa(rank),
		}
		if quick {
			args = append(args, "-quick")
		}
		cmd := exec.Command(self, args...)
		cmd.Stderr = os.Stderr
		if err := cmd.Start(); err != nil {
			return err
		}
		procs.put(rank, cmd)
		go cmd.Wait() // reap; SIGKILLed workers must not linger as zombies
		return nil
	}
}

// fleetListen picks a listen address for the scheme: a socket file in
// the scratch dir for unix, loopback with an ephemeral port for tcp.
func fleetListen(scheme, scratch, wl string) string {
	if scheme == "unix" {
		return filepath.Join(scratch, wl+".sock")
	}
	return "127.0.0.1:0"
}

// startKiller delivers up to kills SIGKILLs to worker ranks (skipping
// rank 0 so every workload keeps at least one stable rank), the k-th
// once due(k) returns; due reports false when the run is over first.
// Returns the delivered counter.
func startKiller(procs *fleetProcs, workers, kills int, due func(k int) bool, log *obs.Logger) *atomic.Int64 {
	delivered := &atomic.Int64{}
	go func() {
		for k := 0; k < kills; k++ {
			if !due(k) {
				return
			}
			victim := 1 + k%(workers-1)
			if procs.kill(victim) {
				delivered.Add(1)
				log.Event(obs.LevelWarn, "chaos", "fleet worker SIGKILLed",
					obs.Arg{Key: "rank", Value: int64(victim)},
					obs.Arg{Key: "kill", Value: delivered.Load()})
			}
		}
	}()
	return delivered
}

// afterDelays schedules the k-th kill a random delay in [5ms, killMax)
// after the one before it.
func afterDelays(rng *rand.Rand, kills int, killMax time.Duration, stop <-chan struct{}) func(int) bool {
	delays := make([]time.Duration, kills)
	for k := range delays {
		delays[k] = time.Duration(rng.Int63n(int64(killMax)-5e6) + 5e6)
	}
	return func(k int) bool {
		select {
		case <-stop:
			return false
		case <-time.After(delays[k]):
			return true
		}
	}
}

// atRounds schedules kills on the run's own clock: the k-th is due once
// the ghost coordinator's committed round, as published on p, reaches
// a random round in the middle of a run of the given length. Unlike a
// wall-clock delay, this lands mid-run however fast the fleet is.
func atRounds(rng *rand.Rand, kills, rounds int, p *obs.Progress, stop <-chan struct{}) func(int) bool {
	at := make([]float64, kills)
	for k := range at {
		at[k] = float64(rounds/8 + rng.Intn(max(1, rounds*5/8)))
	}
	sort.Float64s(at)
	p.Update("ghost", obs.F("round", 0)) // the stage may hold an earlier run's last round
	return func(k int) bool {
		tick := time.NewTicker(time.Millisecond)
		defer tick.Stop()
		for p.Snapshot()["ghost"].Fields["round"] < at[k] {
			select {
			case <-stop:
				return false
			case <-tick.C:
			}
		}
		return true
	}
}

// fleetSoak runs one fleet workload against real SIGKILLed worker
// subprocesses and compares its state bytes with the clean in-process
// run.
func fleetSoak(self, wl, scratch, scheme string, kills int, killMax time.Duration,
	quick bool, rng *rand.Rand, log *obs.Logger, sink obs.Sink) error {
	tr, err := pnet.New(scheme)
	if err != nil {
		return err
	}
	procs := &fleetProcs{cmds: map[int]*exec.Cmd{}}
	defer procs.killAll()
	stop := make(chan struct{})
	defer close(stop)

	workers := 3
	if wl == "ghost2d" {
		workers = 4
	}
	fc := &pnet.FleetConfig{
		Transport: tr,
		Listen:    fleetListen(scheme, scratch, wl),
		Lease:     time.Second,
		Spawn:     fleetSpawn(self, fleetWorkerName(wl), scheme, procs, quick),
	}
	var delivered *atomic.Int64
	var ref, got []byte
	switch wl {
	case "ghost", "ghost2d":
		size, grains := 144, uint32(200000)
		if quick {
			size, grains = 96, 80000
		}
		opts := []ghost.Option{ghost.WithRanks(3), ghost.WithWidth(2)}
		if wl == "ghost2d" {
			opts = []ghost.Option{ghost.WithProcessGrid(2, 2), ghost.WithWidth(2)}
		}
		refG := sandpile.Center(grains).Build(size, size, nil)
		refRep, err := ghost.New(refG, opts...).Run()
		if err != nil {
			return fmt.Errorf("in-process reference: %w", err)
		}
		ref = sandpileState(refRep.Iterations, refRep.Topples, refRep.Absorbed, refG)

		if sink.Progress == nil {
			sink.Progress = obs.NewProgress(nil)
		}
		delivered = startKiller(procs, workers, kills,
			atRounds(rng, kills, refRep.Exchanges, sink.Progress, stop), log)
		g := sandpile.Center(grains).Build(size, size, nil)
		rep, err := ghost.New(g, append(opts, ghost.WithFleet(fc), ghost.WithObs(sink))...).Run()
		if err != nil {
			return fmt.Errorf("fleet run: %w", err)
		}
		got = sandpileState(rep.Iterations, rep.Topples, rep.Absorbed, g)
		log.Event(obs.LevelInfo, "chaos", "fleet run finished "+wl,
			obs.Arg{Key: "kills", Value: delivered.Load()},
			obs.Arg{Key: "recoveries", Value: int64(rep.Recoveries)})
		if delivered.Load() > 0 && rep.Recoveries == 0 {
			return fmt.Errorf("%d SIGKILLs delivered but the run saw no recoveries", delivered.Load())
		}

	case "wordcount":
		delivered = startKiller(procs, workers, kills, afterDelays(rng, kills, killMax, stop), log)
		lines := 60000
		if quick {
			lines = 20000
		}
		corpus := chaosCorpus(lines)
		job := fleetWordCountJob()
		refOut, _, err := job.Run(corpus)
		if err != nil {
			return fmt.Errorf("in-process reference: %w", err)
		}
		ref = []byte(strings.Join(refOut, "\n"))

		fc.Workers = workers
		fleetJob := fleetWordCountJob()
		fleetJob.Config.Obs = sink
		out, stats, err := fleetJob.RunFleet(context.Background(), corpus, fc, chaosWire())
		if err != nil {
			return fmt.Errorf("fleet run: %w", err)
		}
		got = []byte(strings.Join(out, "\n"))
		log.Event(obs.LevelInfo, "chaos", "fleet run finished "+wl,
			obs.Arg{Key: "kills", Value: delivered.Load()},
			obs.Arg{Key: "task_retries", Value: int64(stats.TaskRetries)})

	default:
		return fmt.Errorf("unknown fleet workload %q", wl)
	}

	if !bytes.Equal(got, ref) {
		return fmt.Errorf("fleet state after %d kills differs from the in-process run (%d vs %d bytes)",
			delivered.Load(), len(got), len(ref))
	}
	fmt.Printf("chaos: fleet-%s: %d kills delivered over %s, state identical (%d bytes)\n",
		wl, delivered.Load(), scheme, len(got))
	return nil
}

// fleetWorkerName maps a driver workload to the worker-side program:
// 1-D and 2-D ghost share one worker (geometry travels in the load).
func fleetWorkerName(wl string) string {
	if wl == "ghost2d" {
		return "ghost"
	}
	return wl
}

// runFleetWorkerMode is the subprocess side: join the coordinator and
// serve tasks until stopped (or until the coordinator goes away for
// good).
func runFleetWorkerMode(workload, scheme, join string, rank int) error {
	tr, err := pnet.New(scheme)
	if err != nil {
		return err
	}
	cfg := pnet.WorkerConfig{
		Transport:       tr,
		Join:            join,
		Rank:            rank,
		Backoff:         pnet.Backoff{Base: 25 * time.Millisecond, Max: time.Second, Seed: int64(rank)},
		MaxDialAttempts: 200,
	}
	switch workload {
	case "ghost":
		return ghost.FleetWorker(context.Background(), cfg)
	case "wordcount":
		return fleetWordCountJob().FleetWorker(context.Background(), cfg, chaosWire())
	}
	return fmt.Errorf("unknown fleet worker workload %q", workload)
}

// fleetWordCountJob is the wordcount used in fleet mode: identical
// map/reduce logic to the kill–resume workload, no spill (fleet
// durability is re-dispatch, not disk).
func fleetWordCountJob() *mapreduce.Job[string, string, int, string] {
	return wordCountJob(nil)
}

// chaosWire moves the fleet wordcount's records and pairs across the
// socket: strings in, (string, int) pairs shuffled, "word n" lines out.
func chaosWire() *mapreduce.Wire[string, string, int, string] {
	return &mapreduce.Wire[string, string, int, string]{
		AppendIn: mapreduce.AppendString, ReadIn: mapreduce.ReadString,
		AppendKey: mapreduce.AppendString, ReadKey: mapreduce.ReadString,
		AppendVal: mapreduce.AppendInt, ReadVal: mapreduce.ReadInt,
		AppendOut: mapreduce.AppendString, ReadOut: mapreduce.ReadString,
	}
}
