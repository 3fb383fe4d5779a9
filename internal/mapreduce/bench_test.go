package mapreduce

import (
	"context"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"
)

// Engine throughput benchmarks, including the combiner's effect on
// shuffle volume.

func benchCorpus(lines int) []string {
	words := []string{"alpha", "beta", "gamma", "delta", "epsilon", "zeta"}
	out := make([]string, lines)
	for i := range out {
		var sb strings.Builder
		for j := 0; j < 8; j++ {
			if j > 0 {
				sb.WriteByte(' ')
			}
			sb.WriteString(words[(i+j)%len(words)])
		}
		out[i] = sb.String()
	}
	return out
}

func benchWordCount(b *testing.B, cfg Config[string], combine bool) {
	b.Helper()
	lines := benchCorpus(2000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		job := wordCountJobForBench(cfg)
		if combine {
			job.Combine = func(key string, values []int) ([]int, error) {
				sum := 0
				for _, v := range values {
					sum += v
				}
				return []int{sum}, nil
			}
		}
		if _, _, err := job.Run(lines); err != nil {
			b.Fatal(err)
		}
	}
	b.SetBytes(int64(len(lines[0]) * len(lines)))
}

func wordCountJobForBench(cfg Config[string]) *Job[string, string, int, KV[string, int]] {
	return &Job[string, string, int, KV[string, int]]{
		Name:   "bench-wordcount",
		Config: cfg,
		Map: func(line string, emit func(string, int)) error {
			for _, w := range strings.Fields(line) {
				emit(w, 1)
			}
			return nil
		},
		Reduce: func(key string, values []int, emit func(KV[string, int])) error {
			sum := 0
			for _, v := range values {
				sum += v
			}
			emit(KV[string, int]{key, sum})
			return nil
		},
	}
}

func BenchmarkWordCountSerial(b *testing.B) {
	benchWordCount(b, Config[string]{MapTasks: 1, ReduceTasks: 1, Parallelism: 1}, false)
}

func BenchmarkWordCountParallel(b *testing.B) {
	benchWordCount(b, Config[string]{MapTasks: 8, ReduceTasks: 4, Parallelism: 4}, false)
}

func BenchmarkWordCountWithCombiner(b *testing.B) {
	benchWordCount(b, Config[string]{MapTasks: 8, ReduceTasks: 4, Parallelism: 4}, true)
}

// --- million-record suite ------------------------------------------
// The headline numbers for the sorted-run shuffle: 1M input lines
// (3M intermediate pairs), uniform (~50k distinct keys, shuffle-bound)
// and high-skew (Zipf, a few hot keys with huge value groups). Each
// benchmark has a *Naive twin running the retained hash-group shuffle
// (Config.ReferenceShuffle), so the speedup and allocs/op cut are
// recorded side by side in the BENCH_pr4.json snapshot.

var corpus1M struct {
	uniformOnce, skewOnce sync.Once
	uniform, skewed       []string
}

func uniformCorpus1M() []string {
	corpus1M.uniformOnce.Do(func() {
		rng := rand.New(rand.NewSource(42))
		lines := make([]string, 1_000_000)
		for i := range lines {
			lines[i] = fmt.Sprintf("w%d w%d w%d", rng.Intn(50000), rng.Intn(50000), rng.Intn(50000))
		}
		corpus1M.uniform = lines
	})
	return corpus1M.uniform
}

func skewedCorpus1M() []string {
	corpus1M.skewOnce.Do(func() {
		rng := rand.New(rand.NewSource(43))
		zipf := rand.NewZipf(rng, 1.3, 1, 50000)
		lines := make([]string, 1_000_000)
		for i := range lines {
			lines[i] = fmt.Sprintf("z%d z%d z%d", zipf.Uint64(), zipf.Uint64(), zipf.Uint64())
		}
		corpus1M.skewed = lines
	})
	return corpus1M.skewed
}

func config1M(naive bool) Config[string] {
	return Config[string]{MapTasks: 32, ReduceTasks: 8, ReferenceShuffle: naive}
}

func benchWordCount1M(b *testing.B, lines []string, naive bool) {
	b.Helper()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := wordCountJobForBench(config1M(naive)).Run(lines); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkWordCount1M(b *testing.B)      { benchWordCount1M(b, uniformCorpus1M(), false) }
func BenchmarkWordCount1MNaive(b *testing.B) { benchWordCount1M(b, uniformCorpus1M(), true) }

func BenchmarkWordCount1MHighSkew(b *testing.B)      { benchWordCount1M(b, skewedCorpus1M(), false) }
func BenchmarkWordCount1MHighSkewNaive(b *testing.B) { benchWordCount1M(b, skewedCorpus1M(), true) }

// benchShuffle1M isolates the shuffle+reduce phase: the map output is
// materialized once outside the timer, and each iteration pays only
// reducePhase — the measurement behind the "shuffle phase >=3x"
// acceptance gate.
func benchShuffle1M(b *testing.B, naive bool) {
	b.Helper()
	cfg := config1M(naive).withDefaults()
	job := wordCountJobForBench(cfg)
	splits := splitInputs(uniformCorpus1M(), cfg.MapTasks)
	mapOut := make([][]run[string, int], len(splits))
	for t, split := range splits {
		out, _, _, err := job.runMapTask(context.Background(), t, split, cfg, nil)
		if err != nil {
			b.Fatal(err)
		}
		mapOut[t] = out
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := &jobRun[string, string, int, KV[string, int]]{j: job, cfg: cfg, mapOut: mapOut}
		if _, err := r.reducePhase(context.Background()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkShuffle1M(b *testing.B)      { benchShuffle1M(b, false) }
func BenchmarkShuffle1MNaive(b *testing.B) { benchShuffle1M(b, true) }

// BenchmarkMapTask1M isolates the map half of BenchmarkWordCount1M:
// one map task over one split of the uniform corpus — map function,
// partition, record sort and run building. With BenchmarkShuffle1M it
// splits the end-to-end number into its two phases.
func BenchmarkMapTask1M(b *testing.B) {
	cfg := config1M(false).withDefaults()
	job := wordCountJobForBench(cfg)
	split := splitInputs(uniformCorpus1M(), cfg.MapTasks)[0]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, _, err := job.runMapTask(context.Background(), 0, split, cfg, nil); err != nil {
			b.Fatal(err)
		}
	}
}

var partitionSink int

func BenchmarkHashPartitioner(b *testing.B) {
	keys := uniformCorpus1M()[:1024]
	b.Run("string", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			partitionSink += HashPartitioner(keys[i%len(keys)], 8)
		}
	})
	b.Run("int", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			partitionSink += HashPartitioner(i*7919, 8)
		}
	})
}

// The out-of-core twins: the same 1M word count with the shuffle
// budgeted to a fraction of its resident footprint, so every iteration
// spills and multi-pass-merges through disk. The delta against
// BenchmarkWordCount1M is the measured price of running beyond RAM.
func benchWordCount1MExternal(b *testing.B, budget int64, fanIn int) {
	b.Helper()
	lines := uniformCorpus1M()
	dir := b.TempDir()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cfg := config1M(false)
		cfg.MaxShuffleBytes = budget
		cfg.MergeFanIn = fanIn
		job := wordCountJobForBench(cfg)
		job.External = NewStringIntExternal(dir, "bench")
		_, stats, err := job.Run(lines)
		if err != nil {
			b.Fatal(err)
		}
		if stats.SpilledRuns == 0 {
			b.Fatalf("budget %d spilled nothing", budget)
		}
	}
}

func BenchmarkWordCount1MExternal(b *testing.B) {
	benchWordCount1MExternal(b, 8<<20, 16)
}

func BenchmarkWordCount1MExternalTightBudget(b *testing.B) {
	benchWordCount1MExternal(b, 1<<20, 4)
}

func BenchmarkShuffleManyKeys(b *testing.B) {
	inputs := make([]int, 5000)
	for i := range inputs {
		inputs[i] = i
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		job := &Job[int, string, int, int]{
			Map: func(v int, emit func(string, int)) error {
				emit(fmt.Sprintf("key-%d", v%1000), v)
				return nil
			},
			Reduce: func(key string, values []int, emit func(int)) error {
				emit(len(values))
				return nil
			},
			Config: Config[string]{MapTasks: 8, ReduceTasks: 4, Parallelism: 4},
		}
		if _, _, err := job.Run(inputs); err != nil {
			b.Fatal(err)
		}
	}
}
