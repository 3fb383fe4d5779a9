package mapreduce

import (
	"context"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/fault"
	pnet "repro/internal/net"
)

// fleetCorpus is large enough that map tasks are in flight while kills
// land, and deterministic so every run agrees.
func fleetCorpus(lines int) []string {
	words := []string{"grain", "pile", "topple", "halo", "rank", "lease", "frame", "rejoin"}
	out := make([]string, lines)
	for i := range out {
		a := words[i%len(words)]
		b := words[(i*7+3)%len(words)]
		c := words[(i*13+5)%len(words)]
		out[i] = a + " " + b + " " + c + " " + a
	}
	return out
}

// runFleetWordCount runs the corpus over a goroutine fleet on the chan
// transport and returns outputs + stats.
func runFleetWordCount(t *testing.T, cfg Config[string], lines []string,
	spawn func(ctx context.Context, addr string)) ([]KV[string, int], Stats) {
	t.Helper()
	tr, _ := pnet.New("chan")
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var once sync.Once
	fc := &pnet.FleetConfig{
		Transport:   tr,
		Listen:      "mr-fleet-" + t.Name(),
		Workers:     3,
		Lease:       300 * time.Millisecond,
		JoinTimeout: 10 * time.Second,
		Spawn: func(rank int, addr string) error {
			once.Do(func() { spawn(ctx, addr) })
			return nil
		},
	}
	out, stats, err := wordCountJob(cfg).RunFleet(ctx, lines, fc, StringIntWire())
	if err != nil {
		t.Fatalf("fleet run: %v", err)
	}
	return out, stats
}

// fleetWorkers launches n wordcount fleet workers as goroutines.
func fleetWorkers(tr pnet.Transport, cfg Config[string], n int) func(ctx context.Context, addr string) {
	return func(ctx context.Context, addr string) {
		for r := 0; r < n; r++ {
			go wordCountJob(cfg).FleetWorker(ctx, pnet.WorkerConfig{
				Transport: tr, Join: addr, Rank: r,
				Backoff:         pnet.Backoff{Base: 5 * time.Millisecond, Max: 100 * time.Millisecond},
				MaxDialAttempts: 1000,
			}, StringIntWire())
		}
	}
}

// TestFleetWordCountMatchesRun pins the tentpole equality: the fleet
// run returns the exact output slice Run produces — same order, same
// values — and the shared stats agree.
func TestFleetWordCountMatchesRun(t *testing.T) {
	cfg := Config[string]{MapTasks: 4, ReduceTasks: 3}
	lines := fleetCorpus(200)
	want, wantStats, err := wordCountJob(cfg).Run(lines)
	if err != nil {
		t.Fatal(err)
	}
	tr, _ := pnet.New("chan")
	got, stats := runFleetWordCount(t, cfg, lines, fleetWorkers(tr, cfg, 3))
	if len(got) != len(want) {
		t.Fatalf("fleet produced %d outputs, Run produced %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("output[%d] = %+v, want %+v", i, got[i], want[i])
		}
	}
	if stats.MapTasks != wantStats.MapTasks || stats.ReduceTasks != wantStats.ReduceTasks ||
		stats.MapInputs != wantStats.MapInputs || stats.MapOutputs != wantStats.MapOutputs ||
		stats.ReduceGroups != wantStats.ReduceGroups || stats.Outputs != wantStats.Outputs ||
		stats.ShuffleRuns != wantStats.ShuffleRuns {
		t.Fatalf("fleet stats %+v != run stats %+v", stats, wantStats)
	}
}

// TestFleetWorkerDeathAndReassignment kills worker incarnations while
// tasks are in flight; re-dispatch must keep the output identical.
func TestFleetWorkerDeathAndReassignment(t *testing.T) {
	cfg := Config[string]{MapTasks: 12, ReduceTasks: 4}
	lines := fleetCorpus(3000)
	want, _, err := wordCountJob(cfg).Run(lines)
	if err != nil {
		t.Fatal(err)
	}
	tr, _ := pnet.New("chan")
	var kills atomic.Int64
	got, stats := runFleetWordCount(t, cfg, lines, func(ctx context.Context, addr string) {
		for r := 0; r < 3; r++ {
			go func(rank int) {
				for incarnation := 1; ctx.Err() == nil; incarnation++ {
					wctx, wcancel := context.WithCancel(ctx)
					if rank == 1 && incarnation <= 2 {
						go func(delay time.Duration) {
							time.Sleep(delay)
							kills.Add(1)
							wcancel()
						}(time.Duration(incarnation) * 2 * time.Millisecond)
					}
					wordCountJob(cfg).FleetWorker(wctx, pnet.WorkerConfig{
						Transport: tr, Join: addr, Rank: rank,
						Backoff:         pnet.Backoff{Base: time.Millisecond, Max: 20 * time.Millisecond},
						MaxDialAttempts: 1000,
					}, StringIntWire())
					wcancel()
					if rank != 1 || incarnation > 2 {
						return
					}
				}
			}(r)
		}
	})
	if len(got) != len(want) {
		t.Fatalf("fleet produced %d outputs, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("output[%d] = %+v, want %+v", i, got[i], want[i])
		}
	}
	if kills.Load() > 0 && stats.TaskRetries == 0 {
		// Kills can land between tasks; only a kill mid-task forces a
		// retry, so this is informational rather than fatal.
		t.Logf("killed %d incarnations without forcing a re-dispatch", kills.Load())
	}
}

// TestFleetAllWorkersLostFallsBackInline spawns nothing: after the
// supervisor gives up on every rank the coordinator must finish the
// job inline with identical output.
func TestFleetAllWorkersLostFallsBackInline(t *testing.T) {
	cfg := Config[string]{MapTasks: 3, ReduceTasks: 2}
	lines := fleetCorpus(50)
	want, _, err := wordCountJob(cfg).Run(lines)
	if err != nil {
		t.Fatal(err)
	}
	tr, _ := pnet.New("chan")
	fc := &pnet.FleetConfig{
		Transport:   tr,
		Listen:      "mr-fleet-lost",
		Workers:     2,
		Lease:       200 * time.Millisecond,
		JoinTimeout: 30 * time.Millisecond,
		MaxRespawns: 2,
		Backoff:     pnet.Backoff{Base: 2 * time.Millisecond, Max: 10 * time.Millisecond},
		Spawn:       func(rank int, addr string) error { return nil },
	}
	got, _, err := wordCountJob(cfg).RunFleet(context.Background(), lines, fc, StringIntWire())
	if err != nil {
		t.Fatalf("degraded fleet run: %v", err)
	}
	if len(got) != len(want) {
		t.Fatalf("inline fallback produced %d outputs, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("output[%d] = %+v, want %+v", i, got[i], want[i])
		}
	}
}

// TestFleetRejectsSingleProcessFeatures: fault injection, spilling and
// the reference shuffle are single-process concerns.
func TestFleetRejectsSingleProcessFeatures(t *testing.T) {
	tr, _ := pnet.New("chan")
	fc := &pnet.FleetConfig{Transport: tr, Listen: "mr-fleet-rej", Workers: 1}
	for name, cfg := range map[string]Config[string]{
		"faults":    {Faults: &fault.Plan{Seed: 1}},
		"reference": {ReferenceShuffle: true},
		"external":  {MaxShuffleBytes: 1 << 20},
	} {
		_, _, err := wordCountJob(cfg).RunFleet(context.Background(), fleetCorpus(4), fc, StringIntWire())
		if err == nil {
			t.Fatalf("%s: accepted in fleet mode", name)
		}
	}
}

// TestRunRoundTrip pins the wire codec for runs, including the
// recomputed prefixes.
func TestRunRoundTrip(t *testing.T) {
	w := StringIntWire()
	kvs := []KV[string, int]{{"alpha", 1}, {"alpha", 2}, {"beta", 7}, {"longerkeythanprefix", 3}}
	r := makeRun(kvs)
	buf := appendRun(nil, &r, w.AppendKey, w.AppendVal)
	got, rest, err := readRun(buf, w.ReadKey, w.ReadVal)
	if err != nil {
		t.Fatal(err)
	}
	if len(rest) != 0 {
		t.Fatalf("%d trailing bytes", len(rest))
	}
	if len(got.keys) != len(r.keys) || len(got.offs) != len(r.offs) || len(got.vals) != len(r.vals) {
		t.Fatalf("shape mismatch: %+v vs %+v", got, r)
	}
	for i := range r.keys {
		if got.keys[i] != r.keys[i] || got.prefs[i] != r.prefs[i] {
			t.Fatalf("key %d mismatch", i)
		}
	}
	for i := range r.vals {
		if got.vals[i] != r.vals[i] {
			t.Fatalf("val %d mismatch", i)
		}
	}
	// Empty run round-trips too.
	empty, rest, err := readRun(appendRun(nil, &run[string, int]{}, w.AppendKey, w.AppendVal), w.ReadKey, w.ReadVal)
	if err != nil || len(rest) != 0 || len(empty.keys) != 0 {
		t.Fatalf("empty run: %v %d %d", err, len(rest), len(empty.keys))
	}
}
