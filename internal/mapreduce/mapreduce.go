// Package mapreduce implements the three-phase MapReduce programming
// model (Dean & Ghemawat 2008) that the Warming-Stripes assignment
// teaches: a map phase over input splits, a group-by-keys shuffle, and
// a reduce phase — plus the pieces a real runtime has and the course
// discusses: hash partitioning, combiners, counters, configurable map
// and reduce parallelism, and bounded task retry.
//
// The shuffle is Hadoop's sort-merge design: each map task emits
// per-partition sorted runs (sorted inside the parallel map phase,
// combiner applied to the run), and the reduce phase k-way merges a
// partition's runs in one streaming pass that feeds equal keys
// directly into the reducer — partitions concurrently, no hash-map
// grouping, no global re-sort (merge.go; the retired hash-group
// shuffle survives in naive.go as a validation oracle).
//
// The engine is deliberately deterministic: reduce input groups are
// ordered by key, and within a group values appear in (map-task,
// emission) order, so every job result is reproducible regardless of
// the worker interleaving. A Hadoop-Streaming-style line-oriented
// front end is provided in streaming.go. Every entry point runs the
// one job driver in driver.go.
package mapreduce

import (
	"cmp"
	"context"
	"fmt"
	"hash/fnv"
	"math"
	"runtime"
	"slices"
	"strconv"
	"sync"
	"time"

	"repro/internal/fault"
	pnet "repro/internal/net"
	"repro/internal/obs"
)

// KV is one key/value pair flowing between phases.
type KV[K cmp.Ordered, V any] struct {
	Key   K
	Value V
}

// Mapper transforms one input record into zero or more intermediate
// pairs via emit. Returning an error fails the map task (it will be
// retried up to Config.MaxAttempts times).
type Mapper[I any, K cmp.Ordered, V any] func(record I, emit func(K, V)) error

// Reducer folds all values of one key into zero or more outputs via
// emit. The values slice is owned by the caller; reducers must not
// retain it.
type Reducer[K cmp.Ordered, V, O any] func(key K, values []V, emit func(O)) error

// Combiner locally pre-reduces the values a single map task emitted
// for one key, producing the (smaller) value list actually shuffled.
// It must be semantically idempotent with respect to the reducer —
// the classic MapReduce combiner contract.
type Combiner[K cmp.Ordered, V any] func(key K, values []V) ([]V, error)

// Partitioner assigns a key to one of nReduce partitions. It must be
// deterministic and return a value in [0, nReduce).
type Partitioner[K cmp.Ordered] func(key K, nReduce int) int

// HashPartitioner is the default: FNV-1a over the key's %v string
// form, Hadoop's HashPartitioner in spirit. Keys whose type is exactly
// string or a built-in integer type take an allocation-free fast path
// that hashes the same bytes fmt would print (the string itself, or
// the decimal digits), so their partitions match the fmt path exactly.
// Floats, defined types (whose String method %v honours) and anything
// else keep the fmt path.
func HashPartitioner[K cmp.Ordered](key K, nReduce int) int {
	var h uint32
	switch v := any(key).(type) {
	case string:
		h = fnv1a(v)
	case int:
		h = hashInt(int64(v))
	case int8:
		h = hashInt(int64(v))
	case int16:
		h = hashInt(int64(v))
	case int32:
		h = hashInt(int64(v))
	case int64:
		h = hashInt(v)
	case uint:
		h = hashUint(uint64(v))
	case uint8:
		h = hashUint(uint64(v))
	case uint16:
		h = hashUint(uint64(v))
	case uint32:
		h = hashUint(uint64(v))
	case uint64:
		h = hashUint(v)
	case uintptr:
		h = hashUint(uint64(v))
	default:
		f := fnv.New32a()
		fmt.Fprintf(f, "%v", key)
		h = f.Sum32()
	}
	return int(h % uint32(nReduce))
}

// fnv1a is hash/fnv's 32-bit FNV-1a, inlined so hashing a key
// allocates nothing.
func fnv1a[B string | []byte](b B) uint32 {
	const offset32, prime32 = 2166136261, 16777619
	h := uint32(offset32)
	for i := 0; i < len(b); i++ {
		h ^= uint32(b[i])
		h *= prime32
	}
	return h
}

// hashInt and hashUint hash v's decimal digits (what %v prints),
// formatted into a stack buffer.
func hashInt(v int64) uint32 {
	var digits [20]byte
	return fnv1a(strconv.AppendInt(digits[:0], v, 10))
}

func hashUint(v uint64) uint32 {
	var digits [20]byte
	return fnv1a(strconv.AppendUint(digits[:0], v, 10))
}

// Config tunes a job run.
type Config[K cmp.Ordered] struct {
	// MapTasks is the number of map tasks the input is split into;
	// 0 means one task per input chunk as provided.
	MapTasks int
	// ReduceTasks is the number of reduce partitions; 0 means 1.
	ReduceTasks int
	// Parallelism bounds concurrently running tasks; 0 means
	// GOMAXPROCS.
	Parallelism int
	// MaxAttempts is the per-task retry budget; 0 means 1 (no retry).
	MaxAttempts int
	// RetryBackoff is the base sleep between task attempts, growing
	// exponentially (base, 2·base, 4·base, … capped at 32·base) and
	// jittered into the top half of each step so simultaneous failures
	// do not retry in lockstep. The jitter is deterministic per
	// (seed, task, attempt), keeping fault replays exact. The sleep is
	// context-aware — cancellation aborts it immediately.
	// 0 retries back-to-back.
	RetryBackoff time.Duration
	// Partitioner routes keys to reduce partitions; nil means
	// HashPartitioner.
	Partitioner Partitioner[K]
	// Obs attaches the observability layer: map/shuffle/reduce task
	// spans on the "mapreduce-*" tracks, mapreduce.* counters, and a
	// group-size histogram. The zero Sink disables it.
	Obs obs.Sink
	// Faults enables deterministic task-failure injection: map and
	// reduce task attempts fail with the plan's TaskFail probability
	// and are absorbed by the ordinary retry budget (injection
	// defaults MaxAttempts to 3 when left zero). Same seed, same
	// failure schedule, same final output — the retries are invisible
	// except in Stats.TaskRetries. nil disables.
	Faults *fault.Plan
	// ReferenceShuffle selects the retained naive shuffle (serial
	// hash-group per partition plus a post-hoc sort, the pre-sorted-run
	// implementation) instead of the parallel k-way merge pipeline.
	// It exists for validation (the randomized equivalence oracle) and
	// benchmarking; outputs are identical either way. Incompatible with
	// MaxShuffleBytes — the naive shuffle cannot run out-of-core.
	ReferenceShuffle bool
	// MaxShuffleBytes caps the approximate bytes of map output held
	// resident for the shuffle. Once a completed map task would push
	// the account past the cap, its runs are spilled to disk and the
	// reduce phase switches that partition to the multi-pass external
	// merge (external.go). Requires Job.External for the scratch dir
	// and wire codecs. 0 keeps the whole shuffle in memory. Output is
	// byte-identical either way.
	MaxShuffleBytes int64
	// MergeFanIn caps how many runs one external merge pass streams at
	// once (intermediate merged runs are re-spilled until the final
	// pass fits); 0 means 16, values below 2 are treated as 0. Only
	// consulted when MaxShuffleBytes forces spilling.
	MergeFanIn int
}

func (c Config[K]) withDefaults() Config[K] {
	if c.ReduceTasks <= 0 {
		c.ReduceTasks = 1
	}
	if c.Parallelism <= 0 {
		c.Parallelism = runtime.GOMAXPROCS(0)
	}
	if c.MaxAttempts <= 0 {
		c.MaxAttempts = 1
		if c.Faults != nil && c.Faults.TaskFail > 0 {
			// Injected failures need retry headroom: the plan's own
			// attempts budget when given, else a small default.
			c.MaxAttempts = 3
			if n := c.Faults.Retry.MaxAttempts; n > 0 {
				c.MaxAttempts = n
			}
		}
	}
	if c.Partitioner == nil {
		c.Partitioner = HashPartitioner[K]
	}
	return c
}

// Counters collect named int64 metrics across tasks, like Hadoop job
// counters. Safe for concurrent use.
type Counters struct {
	mu sync.Mutex
	m  map[string]int64
}

// NewCounters returns an empty counter set.
func NewCounters() *Counters { return &Counters{m: map[string]int64{}} }

// Add increments counter name by delta.
func (c *Counters) Add(name string, delta int64) {
	c.mu.Lock()
	c.m[name] += delta
	c.mu.Unlock()
}

// Get returns the value of counter name (0 if never touched).
func (c *Counters) Get(name string) int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.m[name]
}

// Snapshot returns a copy of all counters.
func (c *Counters) Snapshot() map[string]int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make(map[string]int64, len(c.m))
	for k, v := range c.m {
		out[k] = v
	}
	return out
}

// Stats describes an executed job.
type Stats struct {
	MapTasks        int
	ReduceTasks     int
	MapInputs       int // records consumed by mappers
	MapOutputs      int // pairs emitted by mappers
	CombineOutputs  int // pairs after combining (== MapOutputs without a combiner)
	ReduceGroups    int // distinct keys reduced
	Outputs         int // records emitted by reducers
	TaskRetries     int // failed task attempts that were retried
	ShuffleRuns     int // non-empty sorted runs fed to the shuffle merges (0 with ReferenceShuffle)
	MergePasses     int // per-partition k-way merge passes executed (0 with ReferenceShuffle)
	MapTasksResumed int // map tasks restored from spill files instead of executed (0 without Job.Spill)
	SpilledRuns     int // sorted runs written to external run files under the MaxShuffleBytes budget
	// SpilledBytes counts external run-file bytes written, including
	// intermediate multi-pass merge output (0 when nothing spilled).
	SpilledBytes int64
}

// Job binds the phases of one MapReduce computation.
type Job[I any, K cmp.Ordered, V, O any] struct {
	Name     string
	Map      Mapper[I, K, V]
	Combine  Combiner[K, V] // optional
	Reduce   Reducer[K, V, O]
	Config   Config[K]
	Counters *Counters // optional; created on demand
	// Spill makes map-task output durable: completed tasks persist
	// their sorted runs to Spill.Dir and a re-run of the same job
	// resumes from the first unfinished task (see spill.go). nil
	// keeps everything in memory.
	Spill *Spill[K, V]
	// External supplies the scratch directory and wire codecs for the
	// out-of-core shuffle (external.go); required when
	// Config.MaxShuffleBytes > 0 and ignored otherwise.
	External *External[K, V]
}

// Run executes the job over the input records and returns the reduce
// outputs in deterministic order (reduce partitions in index order,
// keys ascending within each partition).
func (j *Job[I, K, V, O]) Run(inputs []I) ([]O, Stats, error) {
	return j.RunContext(context.Background(), inputs)
}

// RunContext is Run with cancellation: queued tasks are skipped once
// ctx is cancelled and ctx.Err() is returned (already-running task
// attempts finish — map and reduce functions are not interrupted
// mid-record).
func (j *Job[I, K, V, O]) RunContext(ctx context.Context, inputs []I) ([]O, Stats, error) {
	return j.runJob(ctx, inputs, nil, nil)
}

// runTasks executes fn(task) for task in [0, n), at most parallelism
// at a time, skipping tasks queued after ctx is cancelled (ctx.Err()
// becomes the result). The first error wins; later tasks still run —
// the map/reduce retry semantics are per task, not per phase. It is
// the in-process placement of both phases of every job.
func runTasks(ctx context.Context, n, parallelism int, fn func(task int) error) error {
	var (
		wg      sync.WaitGroup
		sem     = make(chan struct{}, parallelism)
		errMu   sync.Mutex
		firstEr error
	)
	record := func(err error) {
		errMu.Lock()
		if firstEr == nil {
			firstEr = err
		}
		errMu.Unlock()
	}
	for t := 0; t < n; t++ {
		wg.Add(1)
		go func(t int) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			if err := ctx.Err(); err != nil {
				record(err)
				return
			}
			if err := fn(t); err != nil {
				record(err)
			}
		}(t)
	}
	wg.Wait()
	return firstEr
}

// runMapTask executes one map task (with retry): maps every record of
// the split and hands the pairs to partitionRuns. It returns the
// per-partition runs, the raw emission count, the number of attempts,
// and the final error.
func (j *Job[I, K, V, O]) runMapTask(ctx context.Context, t int, split []I, cfg Config[K], inj *fault.Injector) ([]run[K, V], int, int, error) {
	return j.mapAttempts(ctx, t, cfg, inj, func(emit func(K, V)) error {
		for _, rec := range split {
			if err := j.Map(rec, emit); err != nil {
				return err
			}
		}
		return nil
	})
}

// mapAttempts runs map task t's producer under the retry budget (inj
// may fail attempts) and turns the pairs of the successful attempt into
// per-partition runs. It returns the runs, the raw emission count, the
// number of attempts, and the final error. The emitted-pair buffer is
// a pooled mapBuf, reused across attempts and tasks.
func (j *Job[I, K, V, O]) mapAttempts(ctx context.Context, t int, cfg Config[K], inj *fault.Injector, produce func(emit func(K, V)) error) ([]run[K, V], int, int, error) {
	var parts []run[K, V]
	emitted := 0
	b := getMapBuf[K, V]()
	defer b.release()
	emit := func(k K, v V) { b.pairs = append(b.pairs, KV[K, V]{k, v}) }
	attempts, err := retryTask(ctx, cfg.MaxAttempts, cfg.RetryBackoff,
		retrySeed(cfg), func() string { return fmt.Sprintf("map:%d", t) }, func(attempt int) error {
			if inj.TaskFails("map", attempt, t) {
				return fault.ErrInjected
			}
			b.reset()
			if err := produce(emit); err != nil {
				return err
			}
			emitted = len(b.pairs)
			var err error
			parts, err = partitionRuns(b, cfg, j.Combine)
			return err
		})
	return parts, emitted, attempts, err
}

// partitionRuns routes one map task's pairs (b.pairs) to their
// partitions and turns each partition into a sorted, span-compressed
// run (with map-side combining applied as the spans are built, so
// combiner jobs shrink data before the shuffle ever sees it). The sort
// happens here, at map-task granularity, inside the already-parallel
// map phase — the shuffle then only merges.
//
// Nothing here scales allocations with the pair count: one counting
// pass groups the pairs by partition into b.recs, a single flat slice
// of pointer-free {prefix, emission index} records, sortRecs sorts each
// partition's segment, and buildRun gathers keys and values through
// the indices into the run's own exactly sized arrays.
func partitionRuns[K cmp.Ordered, V any](b *mapBuf[K, V], cfg Config[K], combine Combiner[K, V]) ([]run[K, V], error) {
	n := cfg.ReduceTasks
	if uint64(len(b.pairs)) > math.MaxUint32 {
		return nil, fmt.Errorf("mapreduce: %d pairs in one map task exceed the sort index", len(b.pairs))
	}
	b.partOf = slices.Grow(b.partOf[:0], len(b.pairs))[:len(b.pairs)]
	ends := make([]int, n+1) // ends[p+1] counts, then ends, partition p's segment
	for i, kv := range b.pairs {
		p := cfg.Partitioner(kv.Key, n)
		if p < 0 || p >= n {
			return nil, fmt.Errorf("partitioner returned %d for %d partitions", p, n)
		}
		b.partOf[i] = uint32(p)
		ends[p+1]++
	}
	for p := range n {
		ends[p+1] += ends[p]
	}
	b.recs = slices.Grow(b.recs[:0], len(b.pairs))[:len(b.pairs)]
	next := slices.Clone(ends[:n])
	for i, kv := range b.pairs {
		p := b.partOf[i]
		b.recs[next[p]] = sortRec{pref: keyPrefix(kv.Key), idx: uint32(i)}
		next[p]++
	}
	b.tmp = slices.Grow(b.tmp[:0], len(b.pairs))[:len(b.pairs)]
	parts := make([]run[K, V], n)
	for p := range n {
		seg := sortRecs(b.recs[ends[p]:ends[p+1]], b.tmp[ends[p]:ends[p+1]], b.pairs)
		r, err := buildRun(b.pairs, seg, combine)
		if err != nil {
			return nil, err
		}
		parts[p] = r
	}
	return parts, nil
}

// retrySeed picks the jitter seed for a config: the fault plan's seed
// when injection is on (so a replayed plan reproduces the exact retry
// timeline), zero otherwise.
func retrySeed[K cmp.Ordered](cfg Config[K]) int64 {
	if cfg.Faults != nil {
		return cfg.Faults.Seed
	}
	return 0
}

// retryTask runs fn up to maxAttempts times (fn receives the 1-based
// attempt number), returning the number of attempts made and the last
// error (nil on success). Between attempts it sleeps a jittered
// exponential backoff keyed by the task identity (see backoffDelay;
// zero backoff disables the sleep). key formats that identity; it is
// called only when a delay is actually computed, so the success path
// formats nothing — and the sleep is context-aware:
// ctx cancellation aborts the wait immediately and surfaces ctx.Err()
// instead of burning the remaining attempts.
func retryTask(ctx context.Context, maxAttempts int, backoff time.Duration, seed int64, key func() string, fn func(attempt int) error) (int, error) {
	var err error
	for attempt := 1; attempt <= maxAttempts; attempt++ {
		if err = fn(attempt); err == nil {
			return attempt, nil
		}
		if attempt == maxAttempts {
			break
		}
		var d time.Duration
		if backoff > 0 {
			d = backoffDelay(backoff, seed, key(), attempt)
		}
		if cerr := sleepContext(ctx, d); cerr != nil {
			return attempt, cerr
		}
	}
	return maxAttempts, err
}

// backoffDelay is the attempt'th retry delay: base·2^(attempt-1)
// capped at 32·base, scaled by a jitter factor in [0.5, 1.0) so a
// wave of simultaneously failing tasks does not retry in lockstep.
// The jitter is a pure function of (seed, key, attempt) — the same
// deterministic recipe the transport's reconnect backoff uses — so a
// replayed fault schedule reproduces the exact retry timeline.
func backoffDelay(base time.Duration, seed int64, key string, attempt int) time.Duration {
	if base <= 0 {
		return 0
	}
	return pnet.Backoff{Base: base, Max: base << 5, Seed: seed}.Delay(key, attempt)
}

// sleepContext waits d or until ctx is cancelled, whichever comes
// first, returning ctx.Err() on cancellation (also when d is zero and
// ctx is already dead — a cancelled job never starts another
// attempt).
func sleepContext(ctx context.Context, d time.Duration) error {
	if d <= 0 {
		return ctx.Err()
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// splitInputs partitions inputs into n contiguous splits (or one
// record per split when n <= 0 is resolved to len(inputs) capped at
// a sane default).
func splitInputs[I any](inputs []I, n int) [][]I {
	if len(inputs) == 0 {
		return nil
	}
	if n <= 0 {
		n = min(len(inputs), runtime.GOMAXPROCS(0)*4)
	}
	if n > len(inputs) {
		n = len(inputs)
	}
	splits := make([][]I, 0, n)
	base := len(inputs) / n
	extra := len(inputs) % n
	pos := 0
	for i := 0; i < n; i++ {
		size := base
		if i < extra {
			size++
		}
		splits = append(splits, inputs[pos:pos+size])
		pos += size
	}
	return splits
}

// SortOutputs sorts job outputs with the given less function; a
// convenience for callers that want a global order over partitioned
// results.
func SortOutputs[O any](outputs []O, less func(a, b O) bool) {
	slices.SortStableFunc(outputs, func(a, b O) int {
		switch {
		case less(a, b):
			return -1
		case less(b, a):
			return 1
		default:
			return 0
		}
	})
}
