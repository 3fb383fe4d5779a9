package mapreduce

// speculative.go implements Hadoop-style speculative execution: when a
// map task straggles, a backup attempt of the same task is launched
// and the first attempt to finish wins. Because mappers are required
// to be pure functions of their split, both attempts produce identical
// output and the race is benign — the classic tail-latency defense of
// Dean & Ghemawat's original MapReduce paper, which the course's
// "somewhat dated but still the methodological basis" framing makes
// worth teaching.
//
// Stragglers do not occur naturally in an in-memory engine, so the
// config exposes an injection hook (InjectDelay) used by tests and
// benchmarks to create them deterministically.

import (
	"context"
	"sync/atomic"
	"time"
)

// SpecConfig tunes speculative execution.
type SpecConfig struct {
	// SpeculationAfter launches a backup attempt for any map task
	// still running after this long. Zero disables speculation.
	SpeculationAfter time.Duration
	// InjectDelay, when non-nil, sleeps the given duration before a
	// map-task attempt runs: attempt 0 is the original, 1 the backup.
	// It exists to create stragglers deterministically in tests.
	InjectDelay func(task, attempt int) time.Duration
}

// SpecStats extends Stats with speculation accounting.
type SpecStats struct {
	Stats
	// BackupsLaunched counts speculative attempts started.
	BackupsLaunched int
	// BackupsWon counts tasks whose backup finished first.
	BackupsWon int
}

// RunSpeculative executes the job like Job.Run but with speculative
// backup attempts for straggling map tasks. The result is identical
// to Job.Run's (mappers must be pure); only the wall-clock behavior
// differs. Both attempts of a task produce the same sorted runs, so
// whichever wins feeds the merge shuffle identically.
func (j *Job[I, K, V, O]) RunSpeculative(inputs []I, spec SpecConfig) ([]O, SpecStats, error) {
	var launched, won atomic.Int64
	type result struct {
		parts             []run[K, V]
		emitted, attempts int
		err               error
		attempt           int // 0 original, 1 backup
	}
	// Each map task races its original attempt against a backup
	// launched once the original has run for SpeculationAfter; the
	// first attempt to finish wins and the loser's result is dropped.
	race := func(ctx context.Context, r *jobRun[I, K, V, O], t int) ([]run[K, V], int, int, error) {
		done := make(chan result, 2) // the loser never blocks
		attempt := func(a int) {
			if spec.InjectDelay != nil {
				time.Sleep(spec.InjectDelay(t, a))
			}
			parts, emitted, attempts, err := j.runMapTask(ctx, t, r.splits[t], r.cfg, r.inj)
			done <- result{parts, emitted, attempts, err, a}
		}
		go attempt(0)
		var straggling <-chan time.Time // nil: never speculate
		if spec.SpeculationAfter > 0 {
			timer := time.NewTimer(spec.SpeculationAfter)
			defer timer.Stop()
			straggling = timer.C
		}
		var res result
		select {
		case res = <-done:
		case <-straggling:
			launched.Add(1)
			go attempt(1)
			res = <-done
		}
		if res.attempt == 1 && res.err == nil {
			won.Add(1)
		}
		return res.parts, res.emitted, res.attempts, res.err
	}
	out, st, err := j.runJob(context.Background(), inputs, race, nil)
	return out, SpecStats{Stats: st, BackupsLaunched: int(launched.Load()), BackupsWon: int(won.Load())}, err
}
