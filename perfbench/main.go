// Command perfbench is the repository's end-to-end benchmark. One run
// executes one seeded workload against the public APIs of the
// mapreduce, ghost + net, and job packages, checks every output
// against an oracle computed in set-up, prints the metrics by name
// with their units, and ends with one JSON result line.
//
//	perfbench --workload wordcount-1m --seed 1 --seconds 20 --trace 0
//
// With --trace 0 the run is untimed by any probe and reports the
// end-to-end metrics. With --trace 1 the measuring window is split: the
// first half runs untraced, the second half runs with the benchmark's
// probes around every call into a layer; the run reports the per-layer
// metrics and writes the spans as Chrome/Perfetto JSON. See README.md.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

// workload is one benchmark scenario.
type workload interface {
	// setup builds the inputs and the oracle from the seed; it may be
	// called several times and each call replaces the previous state.
	setup(ctx context.Context) error
	// run executes operations in a closed loop for d and returns what
	// it measured. A non-nil rec traces every operation.
	run(ctx context.Context, d time.Duration, rec *recorder) (phase, error)
	// layers reports the per-layer metrics gathered by traced runs
	// (and the memory figures of untraced ones).
	layers() map[string]float64
	// close releases everything setup and run hold.
	close()
}

// phase is the outcome of one measuring window.
type phase struct {
	lat       []time.Duration // per completed operation
	elapsed   time.Duration   // window start to last completion
	attempted int
	failed    int
	// namedMetrics are the workload's own end-to-end figures under the
	// names the documentation uses (wc_job_s, job_p90_ms, ...).
	namedMetrics []line
}

// line is one human-readable metric line.
type line struct {
	name, unit string
	value      float64
	note       string
}

var workloads = map[string]func(seed int64, scratch string) workload{
	"wordcount-1m": newWordCount,
	"ghost-fleet":  newGhostFleet,
	"peachyd-mix":  newPeachyd,
}

// setupReps is how many times set-up runs; setup_s is their median.
const setupReps = 5

func main() {
	name := flag.String("workload", "", "workload: wordcount-1m, ghost-fleet or peachyd-mix")
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Int("seconds", 20, "measuring window in seconds")
	trace := flag.Int("trace", 0, "1 runs the traced pass and reports per-layer metrics")
	scratch := flag.String("scratch", ".bench_build", "directory for sockets and the span file")
	flag.Parse()

	mk, ok := workloads[*name]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "usage: perfbench --workload <wordcount-1m|ghost-fleet|peachyd-mix> --seed N --seconds S --trace 0|1")
		os.Exit(2)
	}
	if err := os.MkdirAll(*scratch, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	// Every run must end well inside the caller's 180 s budget; a hung
	// layer aborts the run instead of the caller's clock.
	watchdog := time.AfterFunc(time.Duration(*seconds)*time.Second+100*time.Second, func() {
		fmt.Fprintln(os.Stderr, "perfbench: run exceeded its time budget")
		os.Exit(1)
	})
	defer watchdog.Stop()

	res, err := runWorkload(context.Background(), *name, mk(*seed, *scratch), *seed, *seconds, *trace == 1, *scratch)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
	if !res.Correct {
		os.Exit(1)
	}
}

// result is the final JSON line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func runWorkload(ctx context.Context, name string, w workload, seed int64, seconds int, traced bool, scratch string) (result, error) {
	defer w.close()
	fmt.Printf("workload=%s seed=%d seconds=%d trace=%v\n", name, seed, seconds, traced)

	setups := make([]float64, 0, setupReps)
	for i := 0; i < setupReps; i++ {
		t0 := time.Now()
		if err := w.setup(ctx); err != nil {
			return result{}, fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	setupS := median(setups)

	// One untimed operation lets caches fill and lazy set-up finish;
	// it is still checked against the oracle.
	warm, err := w.run(ctx, 0, nil)
	if err != nil {
		return result{}, fmt.Errorf("warm-up: %w", err)
	}

	window := time.Duration(seconds) * time.Second
	var plain, probed phase
	var rec *recorder
	if traced {
		window /= 2
		if plain, err = w.run(ctx, window, nil); err != nil {
			return result{}, err
		}
		rec = newRecorder()
		if probed, err = w.run(ctx, window, rec); err != nil {
			return result{}, err
		}
	} else if plain, err = w.run(ctx, window, nil); err != nil {
		return result{}, err
	}

	attempted := warm.attempted + plain.attempted + probed.attempted
	failed := warm.failed + plain.failed + probed.failed
	res := result{
		Correct:   failed == 0 && len(plain.lat) > 0 && (!traced || len(probed.lat) > 0),
		Attempted: attempted,
		Failed:    failed,
		Metrics:   map[string]metric{},
	}
	errRate := 0.0
	if attempted > 0 {
		errRate = float64(failed) / float64(attempted)
	}
	printLine(line{name: "setup_s", unit: "s", value: setupS, note: fmt.Sprintf("median of %d", len(setups))})
	printLine(line{name: "error_rate", unit: "ratio", value: errRate, note: fmt.Sprintf("%d of %d", failed, attempted)})
	for _, l := range plain.namedMetrics {
		printLine(l)
	}

	if !traced {
		for _, m := range endToEnd(plain, setupS) {
			if m.name != "setup_s" {
				printLine(m)
			}
			res.Metrics[m.name] = metric{Value: m.value, Unit: m.unit}
		}
		return res, nil
	}

	path := filepath.Join(scratch, fmt.Sprintf("trace-%s-seed%d.json", name, seed))
	if err := rec.tr.SaveChrome(path); err != nil {
		return result{}, err
	}
	fmt.Printf("spans: %d written to %s\n", rec.tr.Len(), path)
	vals := w.layers()
	for layer, s := range rec.selfTimes(len(probed.lat)) {
		vals[layer+".self_s"] = s
	}
	vals["trace.overhead_ms"] = ms(quantile(probed.lat, 0.5) - quantile(plain.lat, 0.5))
	for _, pl := range perLayer {
		v := vals[pl.name]
		printLine(line{name: pl.name, unit: pl.unit, value: v})
		res.Metrics[pl.name] = metric{Value: v, Unit: pl.unit}
	}
	return res, nil
}

// endToEnd derives the gated metrics, which every workload reports
// under the same names: an operation is one WordCount, one fleet solve
// or one peachyd job from submit to result. There is no tail
// percentile among them: a 30 s window holds only ~20 WordCounts or
// solves, too few for a p90 with ten samples beyond it. peachyd-mix
// prints its job_p90_ms beside them.
func endToEnd(p phase, setupS float64) []line {
	n := fmt.Sprintf("n=%d", len(p.lat))
	return []line{
		{name: "op_p50_ms", unit: "ms", value: ms(quantile(p.lat, 0.5)), note: n},
		{name: "ops_per_s", unit: "1/s", value: float64(len(p.lat)) / p.elapsed.Seconds(), note: n},
		{name: "setup_s", unit: "s", value: setupS},
	}
}

// serialRun runs one operation at a time until d has passed, at least
// one. do runs operation op and returns its latency; untraced
// operations also record their heap traffic in mem.
func serialRun(ctx context.Context, d time.Duration, ops *int, traced bool, mem *[]memSample, do func(op int) (time.Duration, error)) phase {
	var p phase
	start := time.Now()
	for {
		*ops++
		op := *ops
		p.attempted++
		var ms0, ms1 runtime.MemStats
		if !traced {
			runtime.ReadMemStats(&ms0)
		}
		lat, err := do(op)
		if err != nil {
			p.failed++
			fmt.Printf("op %d failed: %v\n", op, err)
		} else {
			p.lat = append(p.lat, lat)
			if !traced {
				runtime.ReadMemStats(&ms1)
				*mem = append(*mem, memSample{ms1.TotalAlloc - ms0.TotalAlloc, ms1.Mallocs - ms0.Mallocs})
			}
		}
		p.elapsed = time.Since(start)
		if p.elapsed >= d || ctx.Err() != nil {
			return p
		}
	}
}

func printLine(l line) {
	if l.note != "" {
		fmt.Printf("%-32s %14.6f %-6s (%s)\n", l.name, l.value, l.unit, l.note)
		return
	}
	fmt.Printf("%-32s %14.6f %s\n", l.name, l.value, l.unit)
}
