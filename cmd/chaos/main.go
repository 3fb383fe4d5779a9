// Command chaos is the kill–resume soak harness for the durable
// checkpoint subsystem (internal/ckpt). For each workload it first
// computes a clean in-process reference state, then repeatedly
// launches itself as a worker subprocess, SIGKILLs the worker at a
// random point, and resumes it from the snapshots it left behind.
// After the final (unkilled) run it asserts the worker's state file is
// byte-identical to the reference — the end-to-end proof that durable
// checkpoints plus deterministic replay survive real process death.
//
// Examples:
//
//	chaos                                  # all workloads, 3 kills each
//	chaos -workload sandpile-faults -kills 5 -seed 9
//	chaos -workload wfsim -kill-max 500ms
package main

import (
	"bytes"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"time"

	"repro/internal/ckpt"
	"repro/internal/engine"
	"repro/internal/fault"
	"repro/internal/ghost"
	"repro/internal/grid"
	"repro/internal/mapreduce"
	"repro/internal/obs"
	"repro/internal/sandpile"
	"repro/internal/wfsched"
)

var workloads = []string{"sandpile", "sandpile-faults", "wfsim", "wordcount"}

func main() {
	var (
		workload  = flag.String("workload", "all", "workload to soak: "+strings.Join(workloads, "|")+"|all")
		kills     = flag.Int("kills", 3, "SIGKILLs to deliver before the final clean run")
		seed      = flag.Int64("seed", 1, "seed for the kill-timing RNG")
		dir       = flag.String("dir", "", "scratch directory (default: a fresh temp dir)")
		killMax   = flag.Duration("kill-max", 1200*time.Millisecond, "upper bound on the random kill delay (fleet mode: wordcount only; ghost kills are timed by round)")
		quick     = flag.Bool("quick", false, "shrink workloads for fast CI soaks")
		obsListen = flag.String("obs-listen", "", "worker telemetry address, forwarded to every launched worker (workers run one at a time, so they can share it); in -fleet mode the driver itself serves telemetry here instead")
		worker    = flag.Bool("worker", false, "internal: run one workload with resume and write the state file")
		out       = flag.String("out", "", "internal: state-file path (worker mode)")

		fleet       = flag.Bool("fleet", false, "process-fleet soak: run "+strings.Join(fleetWorkloads, "|")+" with real worker subprocesses over a socket transport and SIGKILL some mid-run (-workload selects one, default all)")
		transport   = flag.String("transport", "unix", "fleet transport scheme: tcp|unix")
		fleetWorker = flag.String("fleet-worker", "", "internal: join a fleet as this workload's worker")
		join        = flag.String("join", "", "internal: coordinator address to join (fleet worker mode)")
		rank        = flag.Int("rank", 0, "internal: fleet rank (fleet worker mode)")
	)
	flag.Parse()

	if *fleetWorker != "" {
		if err := runFleetWorkerMode(*fleetWorker, *transport, *join, *rank); err != nil {
			fatalf("fleet worker rank %d: %v", *rank, err)
		}
		return
	}
	if *fleet {
		runFleetSoaks(*workload, *transport, *dir, *kills, *killMax, *seed, *quick, *obsListen)
		return
	}

	if *worker {
		var sink obs.Sink
		srv, err := obs.ServeTelemetry(&sink, *obsListen)
		if err != nil {
			fatalf("worker %s: %v", *workload, err)
		}
		defer srv.Close()
		state, err := runWorkload(*workload, *dir, *quick, sink)
		if err != nil {
			fatalf("worker %s: %v", *workload, err)
		}
		if err := writeAtomic(*out, state); err != nil {
			fatalf("worker %s: %v", *workload, err)
		}
		return
	}

	list := workloads
	if *workload != "all" {
		if !validWorkload(*workload) {
			fatalf("unknown workload %q (want %s)", *workload, strings.Join(workloads, ", "))
		}
		list = []string{*workload}
	}
	scratch := *dir
	if scratch == "" {
		var err error
		if scratch, err = os.MkdirTemp("", "chaos-"); err != nil {
			fatalf("%v", err)
		}
		defer os.RemoveAll(scratch)
	}
	self, err := os.Executable()
	if err != nil {
		fatalf("%v", err)
	}

	// The driver's kill/resume decisions are published as structured
	// JSON-lines events on stderr, so soak logs are machine-greppable
	// next to the workers' own telemetry.
	log := obs.NewLogger(obs.WithLogWriter(os.Stderr))
	rng := rand.New(rand.NewSource(*seed))
	failed := 0
	for _, wl := range list {
		if err := soak(self, wl, scratch, *kills, *killMax, *quick, rng, log, *obsListen); err != nil {
			fmt.Fprintf(os.Stderr, "chaos: %s: FAIL: %v\n", wl, err)
			failed++
			continue
		}
		fmt.Printf("chaos: %s: PASS\n", wl)
	}
	if failed > 0 {
		os.Exit(1)
	}
}

// runFleetSoaks drives the fleet workloads and exits non-zero on any
// failure.
func runFleetSoaks(workload, scheme, dir string, kills int, killMax time.Duration, seed int64, quick bool, obsListen string) {
	list := fleetWorkloads
	if workload != "all" {
		ok := false
		for _, w := range fleetWorkloads {
			ok = ok || w == workload
		}
		if !ok {
			fatalf("unknown fleet workload %q (want %s)", workload, strings.Join(fleetWorkloads, ", "))
		}
		list = []string{workload}
	}
	scratch := dir
	if scratch == "" {
		var err error
		if scratch, err = os.MkdirTemp("", "chaos-fleet-"); err != nil {
			fatalf("%v", err)
		}
		defer os.RemoveAll(scratch)
	} else if err := os.MkdirAll(scratch, 0o755); err != nil {
		fatalf("%v", err)
	}
	self, err := os.Executable()
	if err != nil {
		fatalf("%v", err)
	}
	// In fleet mode the coordinator (and its net.* counters — rejoins,
	// deaths, lease expiries) lives in the driver, so the driver serves
	// the telemetry.
	var sink obs.Sink
	srv, err := obs.ServeTelemetry(&sink, obsListen)
	if err != nil {
		fatalf("%v", err)
	}
	defer srv.Close()
	log := obs.NewLogger(obs.WithLogWriter(os.Stderr))
	rng := rand.New(rand.NewSource(seed))
	failed := 0
	for _, wl := range list {
		if err := fleetSoak(self, wl, scratch, scheme, kills, killMax, quick, rng, log, sink); err != nil {
			fmt.Fprintf(os.Stderr, "chaos: fleet-%s: FAIL: %v\n", wl, err)
			failed++
			continue
		}
		fmt.Printf("chaos: fleet-%s: PASS\n", wl)
	}
	if failed > 0 {
		os.Exit(1)
	}
}

// soak drives one workload through the kill–resume cycle and compares
// the survivor's state with the clean in-process reference.
func soak(self, wl, scratch string, kills int, killMax time.Duration, quick bool, rng *rand.Rand, log *obs.Logger, obsListen string) error {
	ref, err := runWorkload(wl, "", quick, obs.Sink{}) // clean reference, no durability
	if err != nil {
		return fmt.Errorf("reference: %w", err)
	}
	wlDir := filepath.Join(scratch, wl)
	if err := os.MkdirAll(wlDir, 0o755); err != nil {
		return err
	}
	stateFile := filepath.Join(wlDir, "state.bin")
	workerArgs := func() []string {
		args := []string{"-worker", "-workload", wl, "-dir", wlDir, "-out", stateFile}
		if quick {
			args = append(args, "-quick")
		}
		if obsListen != "" {
			// Workers run strictly one at a time (each is dead before the
			// next launches), so they can all serve the same address.
			args = append(args, "-obs-listen", obsListen)
		}
		return args
	}

	delivered := 0
	for k := 0; k < kills; k++ {
		delay := time.Duration(rng.Int63n(int64(killMax)-1e6) + 1e6) // [1ms, killMax)
		cmd := exec.Command(self, workerArgs()...)
		cmd.Stderr = os.Stderr
		if err := cmd.Start(); err != nil {
			return err
		}
		log.Event(obs.LevelInfo, "chaos", "worker launched "+wl,
			obs.Arg{Key: "attempt", Value: int64(k + 1)},
			obs.Arg{Key: "pid", Value: int64(cmd.Process.Pid)},
			obs.Arg{Key: "resumed", Value: int64(delivered)})
		done := make(chan error, 1)
		go func() { done <- cmd.Wait() }()
		select {
		case err := <-done:
			// Finished before the kill landed: the run is simply short;
			// later kills would only re-verify a completed state.
			if err != nil {
				return fmt.Errorf("worker exited with %w before kill %d", err, k+1)
			}
			log.Event(obs.LevelInfo, "chaos", "worker finished before kill "+wl,
				obs.Arg{Key: "attempt", Value: int64(k + 1)})
			k = kills
		case <-time.After(delay):
			_ = cmd.Process.Kill() // SIGKILL: no cleanup, no final save
			<-done
			delivered++
			log.Event(obs.LevelWarn, "chaos", "worker SIGKILLed "+wl,
				obs.Arg{Key: "kill", Value: int64(delivered)},
				obs.Arg{Key: "pid", Value: int64(cmd.Process.Pid)},
				obs.Arg{Key: "delay_ms", Value: delay.Milliseconds()})
		}
	}

	final := exec.Command(self, workerArgs()...)
	final.Stderr = os.Stderr
	log.Event(obs.LevelInfo, "chaos", "final resume "+wl,
		obs.Arg{Key: "kills_delivered", Value: int64(delivered)})
	if err := final.Run(); err != nil {
		return fmt.Errorf("final run: %w", err)
	}
	got, err := os.ReadFile(stateFile)
	if err != nil {
		return err
	}
	if !bytes.Equal(got, ref) {
		return fmt.Errorf("state after %d kills differs from the clean reference (%d vs %d bytes)",
			delivered, len(got), len(ref))
	}
	fmt.Printf("chaos: %s: %d kills delivered, state identical (%d bytes)\n", wl, delivered, len(got))
	return nil
}

// runWorkload executes one workload to completion and returns its
// deterministic final-state bytes. An empty dir disables durability
// (the clean reference); otherwise the run checkpoints into dir and
// resumes whatever snapshots a killed predecessor left there.
func runWorkload(name, dir string, quick bool, sink obs.Sink) ([]byte, error) {
	switch name {
	case "sandpile":
		ck, err := checkpointer(dir, "chaos-sandpile", 40, sink)
		if err != nil {
			return nil, err
		}
		size, grains := 192, uint32(900000)
		if quick {
			size, grains = 128, 300000
		}
		g := sandpile.Center(grains).Build(size, size, nil)
		res, err := engine.Run("lazy-sync", g, engine.Params{
			TileH: 16, TileW: 16, Workers: 4, Ckpt: ck, Obs: sink,
		})
		if err != nil {
			return nil, err
		}
		return sandpileState(res.Iterations, res.Topples, res.Absorbed, g), nil

	case "sandpile-faults":
		ck, err := checkpointer(dir, "chaos-ghost", 2, sink)
		if err != nil {
			return nil, err
		}
		// Crash-only plan: message faults just add retransmit sleeps,
		// which soak wall-clock without exercising anything durable.
		plan := &fault.Plan{Seed: 7, Crashes: []fault.Crash{{Rank: 1, Round: 3}}}
		size, grains := 144, uint32(200000)
		if quick {
			size, grains = 96, 80000
		}
		g := sandpile.Center(grains).Build(size, size, nil)
		rep, err := ghost.New(g,
			ghost.WithRanks(3), ghost.WithWidth(2),
			ghost.WithFaults(plan), ghost.WithHeartbeat(300*time.Millisecond),
			ghost.WithCheckpoint(ck), ghost.WithObs(sink),
		).Run()
		if err != nil {
			return nil, err
		}
		return sandpileState(rep.Iterations, rep.Topples, rep.Absorbed, g), nil

	case "wfsim":
		ck, err := checkpointer(dir, "chaos-wfsim", 200, sink)
		if err != nil {
			return nil, err
		}
		sc := wfsched.Tab2Scenario()
		sc.Obs = sink
		choices := wfsched.Tab2Choices(sc.Workflow)
		if quick {
			// All-or-nothing per level: 2^depth placements instead of
			// quartiles on the wide levels.
			for l := range choices {
				choices[l] = []float64{0, 1}
			}
		}
		results, err := wfsched.EvaluateFractionsCheckpointed(sc, choices, ck, 200)
		if err != nil {
			return nil, err
		}
		var e ckpt.Enc
		for i := range results {
			o := &results[i].Outcome
			e.F64(o.Makespan)
			e.F64(o.CO2)
			e.F64(o.EnergyLocalKWh)
			e.F64(o.EnergyCloudKWh)
			e.I64(int64(o.TasksLocal))
			e.I64(int64(o.TasksCloud))
		}
		return e.Bytes(), nil

	case "wordcount":
		var spill *mapreduce.Spill[string, int]
		if dir != "" {
			spill = mapreduce.NewStringIntSpill(dir, "chaos-wc")
		}
		lines := 4000
		if quick {
			lines = 1200
		}
		job := wordCountJob(spill)
		job.Config.Obs = sink
		out, _, err := job.Run(chaosCorpus(lines))
		if err != nil {
			return nil, err
		}
		return []byte(strings.Join(out, "\n")), nil
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

func checkpointer(dir, name string, every int64, sink obs.Sink) (*ckpt.Checkpointer, error) {
	if dir == "" {
		return nil, nil
	}
	store, err := ckpt.Open(dir, name, ckpt.WithObs(sink))
	if err != nil {
		return nil, err
	}
	return ckpt.NewCheckpointer(store, every, true), nil
}

// sandpileState serializes a run's totals plus the stabilized cells.
func sandpileState(iters int, topples, absorbed uint64, g *grid.Grid) []byte {
	var e ckpt.Enc
	e.U64(uint64(iters))
	e.U64(topples)
	e.U64(absorbed)
	for y := 0; y < g.H(); y++ {
		for _, v := range g.Row(y) {
			e.U32(v)
		}
	}
	return e.Bytes()
}

func wordCountJob(spill *mapreduce.Spill[string, int]) *mapreduce.Job[string, string, int, string] {
	return &mapreduce.Job[string, string, int, string]{
		Name: "chaos-wc",
		Map: func(line string, emit func(string, int)) error {
			for _, w := range strings.Fields(line) {
				emit(w, 1)
			}
			return nil
		},
		Reduce: func(k string, vs []int, emit func(string)) error {
			sum := 0
			for _, v := range vs {
				sum += v
			}
			emit(fmt.Sprintf("%s %d", k, sum))
			return nil
		},
		Config: mapreduce.Config[string]{MapTasks: 16, ReduceTasks: 4},
		Spill:  spill,
	}
}

// chaosCorpus is a deterministic pseudo-text corpus for the wordcount
// workload.
func chaosCorpus(n int) []string {
	rng := rand.New(rand.NewSource(99))
	vocab := []string{"peachy", "parallel", "assignments", "sandpile", "montage",
		"ghost", "cells", "carbon", "treasure", "hunt", "stripes", "workflow"}
	lines := make([]string, n)
	for i := range lines {
		var b strings.Builder
		for w := 0; w < 6+rng.Intn(10); w++ {
			b.WriteString(vocab[rng.Intn(len(vocab))])
			b.WriteByte(' ')
		}
		lines[i] = b.String()
	}
	return lines
}

// writeAtomic publishes the state file via temp + rename so a kill
// mid-write can never leave a torn file for the driver to read.
func writeAtomic(path string, data []byte) error {
	if path == "" {
		return fmt.Errorf("missing -out")
	}
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, data, 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, path)
}

func validWorkload(name string) bool {
	for _, w := range workloads {
		if w == name {
			return true
		}
	}
	return false
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "chaos: "+format+"\n", args...)
	os.Exit(1)
}
