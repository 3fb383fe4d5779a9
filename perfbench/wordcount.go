package main

import (
	"context"
	"fmt"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/mapreduce"
)

// wordcount-1m: one mapreduce.Job WordCount per operation over a
// seeded corpus, 32 map tasks, 8 reduce tasks, default parallelism,
// no combiner. No net or job code runs.
const (
	wcLines   = 1_000_000
	wcPerLine = 3
	wcVocab   = 50_000
	wcMaps    = 32
	wcReduces = 8
)

type wcOut struct {
	word  string
	count int
}

func wcMap(line string, emit func(string, int)) error {
	for _, w := range strings.Fields(line) {
		emit(w, 1)
	}
	return nil
}

func wcReduce(word string, counts []int, emit func(wcOut)) error {
	n := 0
	for _, c := range counts {
		n += c
	}
	emit(wcOut{word, n})
	return nil
}

type wordCount struct {
	seed           int64
	nLines, nVocab int

	lines []string
	want  map[string]int // the oracle: a plain map count of the corpus

	ops   int
	probe []mrSample // traced operations
	mem   []memSample
}

func newWordCount(seed int64, _ string) workload {
	return &wordCount{seed: seed, nLines: wcLines, nVocab: wcVocab}
}

func (w *wordCount) setup(context.Context) error {
	w.lines = genCorpus(w.seed, genVocab(w.seed, w.nVocab), w.nLines, wcPerLine)
	w.want = countWords(w.lines)
	return nil
}

// countWords is the WordCount oracle.
func countWords(lines []string) map[string]int {
	want := map[string]int{}
	for _, l := range lines {
		for _, t := range strings.Fields(l) {
			want[t]++
		}
	}
	return want
}

// checkCounts compares a job's output with the oracle.
func checkCounts(out []wcOut, want map[string]int) error {
	if len(out) != len(want) {
		return fmt.Errorf("wordcount: %d distinct words, oracle has %d", len(out), len(want))
	}
	for _, o := range out {
		if want[o.word] != o.count {
			return fmt.Errorf("wordcount: %q counted %d, oracle has %d", o.word, o.count, want[o.word])
		}
	}
	return nil
}

func (w *wordCount) run(ctx context.Context, d time.Duration, rec *recorder) (phase, error) {
	p := serialRun(ctx, d, &w.ops, rec != nil, &w.mem, func(op int) (time.Duration, error) {
		t0 := time.Now()
		out, stats, probe, err := w.runJob(ctx, op, rec)
		lat := time.Since(t0)
		if err == nil {
			err = checkCounts(out, w.want)
		}
		if err == nil && rec != nil {
			probe.stats = stats
			w.probe = append(w.probe, probe)
			rec.span(rec.tr.Track("wordcount", 0, "client"), "bench.wordcount", op, t0, time.Now())
		}
		return lat, err
	})
	p.namedMetrics = []line{{name: "wc_job_s", unit: "s", value: quantile(p.lat, 0.5).Seconds(),
		note: fmt.Sprintf("median, n=%d", len(p.lat))}}
	return p, nil
}

// runJob runs one WordCount; with a recorder the callbacks and the
// partitioner are wrapped in timing probes.
func (w *wordCount) runJob(ctx context.Context, op int, rec *recorder) ([]wcOut, mapreduce.Stats, mrSample, error) {
	job := mapreduce.Job[string, string, int, wcOut]{
		Name:   "wordcount",
		Map:    wcMap,
		Reduce: wcReduce,
		Config: mapreduce.NewConfig(
			mapreduce.WithMapTasks[string](wcMaps),
			mapreduce.WithReduceTasks[string](wcReduces)),
	}
	if rec == nil {
		out, stats, err := job.RunContext(ctx, w.lines)
		return out, stats, mrSample{}, err
	}
	pr := &mrProbe{start: time.Now()}
	job.Map = pr.mapFn
	job.Reduce = pr.reduceFn
	job.Config.Partitioner = pr.partition
	out, stats, err := job.RunContext(ctx, w.lines)
	end := time.Now()
	lastMap := pr.start.Add(time.Duration(pr.lastMap.Load()))
	track := rec.tr.Track("wordcount", 0, "client")
	rec.span(track, "mapreduce.run", op, pr.start, end)
	rec.span(track, "mapreduce.map_phase", op, pr.start, lastMap)
	rec.span(track, "mapreduce.reduce_phase", op, lastMap, end)
	return out, stats, mrSample{
		mapPhase:    lastMap.Sub(pr.start),
		reducePhase: end.Sub(lastMap),
		mapFn:       time.Duration(pr.mapFnNS.sum()),
		emit:        time.Duration(pr.emitNS.sum()),
		partition:   time.Duration(pr.partNS.sum()),
		partCalls:   pr.partCalls.sum(),
		reduceFn:    time.Duration(pr.reduceNS.sum()),
	}, err
}

// mrProbe times the calls mapreduce makes into the job's callbacks.
// Callbacks run on the map and reduce task goroutines, so the sums are
// goroutine-seconds, not wall time. The hot sums are sharded so the
// task goroutines rarely write the same cache line.
type mrProbe struct {
	start     time.Time
	lastMap   atomic.Int64 // latest Map-callback return, ns after start
	mapFnNS   shardedSum   // in Map, excluding emit
	emitNS    shardedSum
	partNS    shardedSum
	partCalls shardedSum
	reduceNS  shardedSum
}

// shardedSum is an int64 sum spread over cache-line-padded shards.
type shardedSum [8]struct {
	v atomic.Int64
	_ [56]byte
}

// add adds d to the shard picked by the caller's cheap key.
func (s *shardedSum) add(key int, d int64) { s[key&7].v.Add(d) }

func (s *shardedSum) sum() int64 {
	var n int64
	for i := range s {
		n += s[i].v.Load()
	}
	return n
}

// mapFn is wcMap with the emit calls timed inline, so the probe
// allocates nothing per record.
func (p *mrProbe) mapFn(line string, emit func(string, int)) error {
	t0 := time.Now()
	var inEmit time.Duration
	for _, w := range strings.Fields(line) {
		e0 := time.Now()
		emit(w, 1)
		inEmit += time.Since(e0)
	}
	end := time.Now()
	p.mapFnNS.add(len(line), int64(end.Sub(t0)-inEmit))
	p.emitNS.add(len(line), int64(inEmit))
	ret := int64(end.Sub(p.start))
	for {
		cur := p.lastMap.Load()
		if ret <= cur || p.lastMap.CompareAndSwap(cur, ret) {
			return nil
		}
	}
}

func (p *mrProbe) partition(key string, n int) int {
	t0 := time.Now()
	part := mapreduce.HashPartitioner(key, n)
	p.partNS.add(len(key), int64(time.Since(t0)))
	p.partCalls.add(len(key), 1)
	return part
}

func (p *mrProbe) reduceFn(word string, counts []int, emit func(wcOut)) error {
	t0 := time.Now()
	err := wcReduce(word, counts, emit)
	p.reduceNS.add(len(word), int64(time.Since(t0)))
	return err
}

// mrSample is one traced WordCount.
type mrSample struct {
	mapPhase, reducePhase, mapFn, emit, partition, reduceFn time.Duration
	partCalls                                               int64
	stats                                                   mapreduce.Stats
}

func (w *wordCount) layers() map[string]float64 {
	col := func(f func(mrSample) float64) float64 {
		xs := make([]float64, len(w.probe))
		for i, s := range w.probe {
			xs[i] = f(s)
		}
		return median(xs)
	}
	allocMB, mallocs := memMedians(w.mem)
	return map[string]float64{
		"mapreduce.map_phase_s":     col(func(s mrSample) float64 { return s.mapPhase.Seconds() }),
		"mapreduce.reduce_phase_s":  col(func(s mrSample) float64 { return s.reducePhase.Seconds() }),
		"mapreduce.map_fn_s":        col(func(s mrSample) float64 { return s.mapFn.Seconds() }),
		"mapreduce.emit_s":          col(func(s mrSample) float64 { return s.emit.Seconds() }),
		"mapreduce.partition_s":     col(func(s mrSample) float64 { return s.partition.Seconds() }),
		"mapreduce.partition_calls": col(func(s mrSample) float64 { return float64(s.partCalls) }),
		"mapreduce.reduce_fn_s":     col(func(s mrSample) float64 { return s.reduceFn.Seconds() }),
		"mapreduce.map_outputs":     col(func(s mrSample) float64 { return float64(s.stats.MapOutputs) }),
		"mapreduce.combine_outputs": col(func(s mrSample) float64 { return float64(s.stats.CombineOutputs) }),
		"mapreduce.shuffle_runs":    col(func(s mrSample) float64 { return float64(s.stats.ShuffleRuns) }),
		"mapreduce.merge_passes":    col(func(s mrSample) float64 { return float64(s.stats.MergePasses) }),
		"mapreduce.alloc_mb":        allocMB,
		"mapreduce.mallocs":         mallocs,
	}
}

func (w *wordCount) close() {}
