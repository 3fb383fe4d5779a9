package main

import (
	"slices"
	"time"
)

// perLayer is the per-layer metric list, in the order BENCHMARK.json
// declares it. A traced run prints every entry; a layer the workload
// does not reach reads 0, which is the predicted "no change" value.
var perLayer = []struct{ name, unit string }{
	{"mapreduce.map_phase_s", "s"},
	{"mapreduce.reduce_phase_s", "s"},
	{"mapreduce.map_fn_s", "s"},
	{"mapreduce.emit_s", "s"},
	{"mapreduce.partition_s", "s"},
	{"mapreduce.partition_calls", "count"},
	{"mapreduce.reduce_fn_s", "s"},
	{"mapreduce.map_outputs", "count"},
	{"mapreduce.combine_outputs", "count"},
	{"mapreduce.shuffle_runs", "count"},
	{"mapreduce.merge_passes", "count"},
	{"mapreduce.alloc_mb", "MB"},
	{"mapreduce.mallocs", "count"},
	{"net.frames_per_round", "count"},
	{"net.bytes_per_round", "bytes"},
	{"net.heartbeats", "count"},
	{"net.send_us_per_frame", "us"},
	{"net.recv_wait_s", "s"},
	{"ghost.rounds", "count"},
	{"ghost.owned_cells", "count"},
	{"ghost.redundant_cells", "count"},
	{"ghost.worker_busy_s", "s"},
	{"ghost.coord_busy_s", "s"},
	{"ghost.seq_ref_s", "s"},
	{"ghost.alloc_mb", "MB"},
	{"job.submit_ms", "ms"},
	{"job.queue_wait_ms", "ms"},
	{"job.run_ms.sandpile-lazy", "ms"},
	{"job.run_ms.sandpile-ghost", "ms"},
	{"job.run_ms.mapreduce", "ms"},
	{"job.run_ms.wfsim-greedy", "ms"},
	{"job.run_ms.wfsim-tab2", "ms"},
	{"job.notify_ms", "ms"},
	{"job.result_ms", "ms"},
	{"job.polls_per_job", "count"},
	{"job.rejected", "count"},
	{"bench.self_s", "s"},
	{"mapreduce.self_s", "s"},
	{"ghost.self_s", "s"},
	{"net.self_s", "s"},
	{"job.self_s", "s"},
	{"runner.self_s", "s"},
	{"trace.overhead_ms", "ms"},
}

// quantile interpolates linearly between the closest ranks, the
// definition numpy and Python's statistics module use by default.
func quantile(xs []time.Duration, q float64) time.Duration {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	pos := q * float64(len(s)-1)
	i := int(pos)
	if i+1 >= len(s) {
		return s[len(s)-1]
	}
	frac := pos - float64(i)
	return s[i] + time.Duration(frac*float64(s[i+1]-s[i]))
}

// median of float samples.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// memSample is the heap traffic of one untraced operation.
type memSample struct{ bytes, mallocs uint64 }

// memMedians returns the median MB allocated and allocation count per
// operation.
func memMedians(ms []memSample) (mb, mallocs float64) {
	bs := make([]float64, len(ms))
	ns := make([]float64, len(ms))
	for i, m := range ms {
		bs[i] = float64(m.bytes) / (1 << 20)
		ns[i] = float64(m.mallocs)
	}
	return median(bs), median(ns)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
