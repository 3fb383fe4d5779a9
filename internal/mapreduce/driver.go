package mapreduce

// driver.go is the one job driver behind every entry point. Run,
// RunSpeculative, RunStreamingPipeline and RunFleet differ only in the
// body of a map task and in where a phase's tasks execute; input
// splitting, the map phase's Spill resume/save and External admission,
// the per-partition run lists, the reduce step, Stats and the
// mapreduce.* counters live here once. The in-process runner is the
// degenerate placement: every task runs here, under Config.Parallelism.

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/fault"
	"repro/internal/obs"
)

var errNoPhases = errors.New("mapreduce: job needs both Map and Reduce")

// mapBody is the body of map task t: its per-partition sorted runs,
// the raw emission count, and the attempts it took.
type mapBody[I any, K cmp.Ordered, V, O any] func(ctx context.Context, r *jobRun[I, K, V, O], t int) ([]run[K, V], int, int, error)

// dispatcher places tasks [0, n) of one phase; local(task) executes a
// task in this process and records its result. It returns how many
// tasks it had to re-dispatch. A nil dispatcher runs every task
// locally under Config.Parallelism.
type dispatcher[I any, K cmp.Ordered, V, O any] func(ctx context.Context, r *jobRun[I, K, V, O], reduce bool, n int, local func(task int) error) (int, error)

// jobRun is one execution of a job: the state the driver owns.
type jobRun[I any, K cmp.Ordered, V, O any] struct {
	j        *Job[I, K, V, O]
	cfg      Config[K]
	inj      *fault.Injector
	body     mapBody[I, K, V, O]
	dispatch dispatcher[I, K, V, O]
	splits   [][]I
	ext      *extShuffle[K, V]

	// mapOut[task][partition] holds the sorted run task t routed to
	// partition p, kept per task so the shuffle merge can break key
	// ties by task index for deterministic value ordering.
	mapOut  [][]run[K, V]
	partOut [][]O

	mu       sync.Mutex // guards stats
	stats    Stats
	mapsDone atomic.Int64
	redsDone atomic.Int64
}

// partStats is what reducing one partition reports.
type partStats struct{ pairs, groups, retries, runs, passes int }

// mergeFunc streams one partition's groups, in ascending key order,
// into group.
type mergeFunc[K cmp.Ordered, V any] func(group func(key K, values []V, gi int) error) (partStats, error)

// runJob executes the job: body runs each map task (nil means
// runMapTask) and dispatch places the tasks (nil means in-process).
func (j *Job[I, K, V, O]) runJob(ctx context.Context, inputs []I, body mapBody[I, K, V, O], dispatch dispatcher[I, K, V, O]) ([]O, Stats, error) {
	cfg := j.Config.withDefaults()
	if j.Map == nil || j.Reduce == nil {
		return nil, Stats{}, errNoPhases
	}
	if j.Counters == nil {
		j.Counters = NewCounters()
	}
	if body == nil {
		body = func(ctx context.Context, r *jobRun[I, K, V, O], t int) ([]run[K, V], int, int, error) {
			return j.runMapTask(ctx, t, r.splits[t], r.cfg, r.inj)
		}
	}
	if j.Spill != nil {
		if err := j.Spill.prepare(); err != nil {
			return nil, Stats{}, err
		}
	}
	splits := splitInputs(inputs, cfg.MapTasks)
	r := &jobRun[I, K, V, O]{
		j: j, cfg: cfg, inj: fault.NewInjector(cfg.Faults, cfg.Obs),
		body: body, dispatch: dispatch, splits: splits,
		mapOut: make([][]run[K, V], len(splits)),
		stats:  Stats{MapTasks: len(splits), ReduceTasks: cfg.ReduceTasks},
	}
	if cfg.MaxShuffleBytes > 0 {
		if j.External == nil {
			return nil, r.stats, errors.New("mapreduce: Config.MaxShuffleBytes needs Job.External (scratch dir + shuffle codecs)")
		}
		if cfg.ReferenceShuffle {
			return nil, r.stats, errors.New("mapreduce: ReferenceShuffle cannot run out-of-core; unset Config.MaxShuffleBytes")
		}
		var err error
		if r.ext, err = newExtShuffle(j.External, cfg.MaxShuffleBytes, cfg.MergeFanIn, len(splits), cfg.ReduceTasks); err != nil {
			return nil, r.stats, err
		}
		defer r.ext.cleanup()
	}

	cfg.Obs.Progress.Update("mapreduce",
		obs.F("map_tasks", float64(len(splits))),
		obs.F("map_done", 0),
		obs.F("reduce_tasks", float64(cfg.ReduceTasks)),
		obs.F("reduce_done", 0))
	if err := r.phase(ctx, false, len(splits), func(t int) error { return r.mapLocal(ctx, t) }); err != nil {
		return nil, r.stats, err
	}
	for _, split := range splits {
		r.stats.MapInputs += len(split)
	}
	out, err := r.reducePhase(ctx)
	if err != nil {
		return nil, r.stats, err
	}
	return out, r.finish(out), nil
}

// phase runs n tasks of the map (reduce=false) or reduce phase through
// the dispatcher, counting its re-dispatches as task retries.
func (r *jobRun[I, K, V, O]) phase(ctx context.Context, reduce bool, n int, local func(int) error) error {
	if r.dispatch == nil {
		return runTasks(ctx, n, r.cfg.Parallelism, local)
	}
	retries, err := r.dispatch(ctx, r, reduce, n, local)
	r.mu.Lock()
	r.stats.TaskRetries += retries
	r.mu.Unlock()
	return err
}

// mapLocal runs map task t in this process: from its spill file when a
// valid one exists, else through the entry point's map-task body.
func (r *jobRun[I, K, V, O]) mapLocal(ctx context.Context, t int) error {
	tr := r.cfg.Obs.Tracer
	m := r.cfg.Obs.Metrics // nil-safe
	mapTS := tr.Now()
	span := func(name string, args ...obs.Arg) {
		if tr != nil {
			tr.Span(tr.Track("mapreduce-map", t, fmt.Sprintf("map task %d", t)), name, mapTS, tr.Now()-mapTS, args...)
		}
	}
	if r.j.Spill != nil {
		if parts, emitted, ok := r.j.Spill.load(t, r.cfg.ReduceTasks); ok {
			m.Counter("ckpt.spill_resumed").Inc()
			span("map(resumed)", obs.Arg{Key: "emitted", Value: int64(emitted)})
			return r.mapDone(t, parts, emitted, 1, true)
		}
	}
	parts, emitted, attempts, err := r.body(ctx, r, t)
	span("map",
		obs.Arg{Key: "records", Value: int64(len(r.splits[t]))},
		obs.Arg{Key: "emitted", Value: int64(emitted)})
	if err != nil {
		return fmt.Errorf("mapreduce: map task %d: %w", t, err)
	}
	if r.j.Spill != nil {
		if err := r.j.Spill.save(t, parts, emitted); err != nil {
			return fmt.Errorf("mapreduce: map task %d spill: %w", t, err)
		}
		m.Counter("ckpt.spill_saves").Inc()
	}
	return r.mapDone(t, parts, emitted, attempts, false)
}

// mapDone records map task t's output, wherever the task ran.
func (r *jobRun[I, K, V, O]) mapDone(t int, parts []run[K, V], emitted, attempts int, resumed bool) error {
	if r.ext != nil {
		if err := r.ext.admit(t, parts); err != nil {
			return err
		}
	}
	r.mapOut[t] = parts
	r.mu.Lock()
	r.stats.MapOutputs += emitted
	r.stats.TaskRetries += attempts - 1
	if resumed {
		r.stats.MapTasksResumed++
	}
	r.mu.Unlock()
	r.j.Counters.Add("map.outputs", int64(emitted))
	r.cfg.Obs.Progress.Update("mapreduce", obs.F("map_done", float64(r.mapsDone.Add(1))))
	return nil
}

// partRuns lists partition p's non-empty in-memory runs in task order.
func (r *jobRun[I, K, V, O]) partRuns(p int) []*run[K, V] {
	runs := make([]*run[K, V], 0, len(r.mapOut))
	for t := range r.mapOut {
		if p < len(r.mapOut[t]) && len(r.mapOut[t][p].keys) > 0 {
			runs = append(runs, &r.mapOut[t][p])
		}
	}
	return runs
}

// reducePhase runs the shuffle and reduce over the map output:
// partitions are placed by the dispatcher and each is reduced by
// reducePartition, with partitions holding spilled runs merged through
// the multi-pass external merge and Config.ReferenceShuffle replaying
// the naive shuffle's groups. Outputs come back in partition order.
func (r *jobRun[I, K, V, O]) reducePhase(ctx context.Context) ([]O, error) {
	var naive []mergeFunc[K, V]
	if r.cfg.ReferenceShuffle {
		naive = naiveShuffle(r.mapOut, r.cfg.ReduceTasks)
	}
	r.partOut = make([][]O, r.cfg.ReduceTasks)
	err := r.phase(ctx, true, r.cfg.ReduceTasks, func(p int) error {
		var merge mergeFunc[K, V]
		switch {
		case naive != nil:
			merge = naive[p]
		case r.ext != nil && r.ext.hasDisk(p):
			merge = func(group func(K, []V, int) error) (partStats, error) {
				return r.ext.mergePartition(p, r.mapOut, group)
			}
		default:
			merge = memMerge(r.partRuns(p))
		}
		outs, ps, err := r.j.reducePartition(ctx, r.cfg, r.inj, p, merge)
		if err != nil {
			return err
		}
		r.reduceDone(p, outs, ps)
		return nil
	})
	if err != nil {
		return nil, err
	}
	var out []O
	for _, po := range r.partOut {
		out = append(out, po...)
	}
	return out, nil
}

// reduceDone records partition p's outputs, wherever it was reduced.
func (r *jobRun[I, K, V, O]) reduceDone(p int, outs []O, ps partStats) {
	r.partOut[p] = outs
	r.mu.Lock()
	r.stats.CombineOutputs += ps.pairs
	r.stats.ReduceGroups += ps.groups
	r.stats.TaskRetries += ps.retries
	r.stats.ShuffleRuns += ps.runs
	r.stats.MergePasses += ps.passes
	r.mu.Unlock()
	r.cfg.Obs.Progress.Update("mapreduce", obs.F("reduce_done", float64(r.redsDone.Add(1))))
}

// finish completes the Stats of a successful run and publishes them as
// the mapreduce.* counters.
func (r *jobRun[I, K, V, O]) finish(out []O) Stats {
	st := r.stats
	st.Outputs = len(out)
	if r.ext != nil {
		st.SpilledRuns = int(r.ext.spilledRuns.Load())
		st.SpilledBytes = r.ext.spilledBytes.Load()
	}
	if m := r.cfg.Obs.Metrics; m != nil {
		m.Counter("mapreduce.tasks.map").Add(int64(st.MapTasks))
		m.Counter("mapreduce.tasks.reduce").Add(int64(st.ReduceTasks))
		m.Counter("mapreduce.records.in").Add(int64(st.MapInputs))
		m.Counter("mapreduce.records.out").Add(int64(st.Outputs))
		m.Counter("mapreduce.groups").Add(int64(st.ReduceGroups))
		m.Counter("mapreduce.retries").Add(int64(st.TaskRetries))
		m.Counter("mapreduce.shuffle.runs").Add(int64(st.ShuffleRuns))
		m.Counter("mapreduce.shuffle.merge_passes").Add(int64(st.MergePasses))
		if r.ext != nil {
			m.Counter("mapreduce.shuffle.spilled_runs").Add(int64(st.SpilledRuns))
			m.Counter("mapreduce.shuffle.spilled_bytes").Add(st.SpilledBytes)
		}
	}
	return st
}

// memMerge merges in-memory runs in one k-way pass.
func memMerge[K cmp.Ordered, V any](runs []*run[K, V]) mergeFunc[K, V] {
	return func(group func(K, []V, int) error) (partStats, error) {
		ps := partStats{runs: len(runs), passes: min(len(runs), 1)}
		var err error
		ps.pairs, ps.groups, err = mergeRuns(runs, group)
		return ps, err
	}
}

// reducePartition shuffles and reduces partition p — the one reduce
// step of every entry point and of the fleet worker. merge feeds the
// partition's groups straight into the reducer, so shuffle and reduce
// are one fused pass with no group materialization. Each group is
// reduced under the retry budget (inj may fail attempts), a failed
// attempt's partial emissions are discarded, group sizes feed the
// mapreduce.group_size histogram, and the partition's shuffle and
// reduce spans are recorded.
func (j *Job[I, K, V, O]) reducePartition(ctx context.Context, cfg Config[K], inj *fault.Injector, p int, merge mergeFunc[K, V]) ([]O, partStats, error) {
	tr := cfg.Obs.Tracer
	hGroup := cfg.Obs.Metrics.Histogram("mapreduce.group_size", nil) // nil-safe
	shufTS := tr.Now()
	var (
		out     []O
		retries int
	)
	emit := func(o O) { out = append(out, o) }
	ps, err := merge(func(key K, values []V, gi int) error {
		hGroup.Observe(float64(len(values)))
		attempts, rerr := retryTask(ctx, cfg.MaxAttempts, cfg.RetryBackoff,
			retrySeed(cfg), func() string { return fmt.Sprintf("reduce:%d:%d", p, gi) }, func(attempt int) error {
				if inj.TaskFails("reduce", attempt, p, gi) {
					return fault.ErrInjected
				}
				checkpoint := len(out)
				if err := j.Reduce(key, values, emit); err != nil {
					out = out[:checkpoint] // discard partial emissions
					return err
				}
				return nil
			})
		retries += attempts - 1
		if rerr != nil {
			return fmt.Errorf("mapreduce: reduce partition %d key %v: %w", p, key, rerr)
		}
		return nil
	})
	ps.retries = retries
	if tr != nil {
		now := tr.Now()
		// Shuffle and reduce are fused, so the per-partition spans
		// cover the same interval on their two tracks; the shuffle
		// span carries the merge shape.
		tr.Span(tr.Track("mapreduce-shuffle", p, fmt.Sprintf("shuffle %d", p)),
			"shuffle", shufTS, now-shufTS,
			obs.Arg{Key: "runs", Value: int64(ps.runs)},
			obs.Arg{Key: "pairs", Value: int64(ps.pairs)},
			obs.Arg{Key: "groups", Value: int64(ps.groups)})
		tr.Span(tr.Track("mapreduce-reduce", p, fmt.Sprintf("reduce %d", p)),
			"reduce", shufTS, now-shufTS,
			obs.Arg{Key: "groups", Value: int64(ps.groups)})
	}
	return out, ps, err
}
