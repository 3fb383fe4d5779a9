package main

import (
	"fmt"
	"slices"
	"strings"
	"sync"
	"time"

	"repro/internal/obs"
)

// recorder keeps a traced run's spans in memory in an obs.Tracer; the
// run writes them out as Chrome/Perfetto JSON when it ends. A span's
// name is "<layer>.<what>", and every span carries the identifier of
// the operation (one WordCount, solve or job) it belongs to as its
// "op" argument.
type recorder struct {
	tr    *obs.Tracer
	epoch time.Time

	mu    sync.Mutex
	lanes []time.Time // end of the last span on each executor row
}

func newRecorder() *recorder {
	return &recorder{tr: obs.NewTracer(nil), epoch: time.Now()}
}

// span records [start, end) on a track.
func (r *recorder) span(track obs.TrackID, name string, op int, start, end time.Time) {
	r.tr.Span(track, name, start.Sub(r.epoch), end.Sub(start), obs.Arg{Key: "op", Value: int64(op)})
}

// executorSpan records a job runner's span on the first executor row
// whose previous span has ended. The manager does not say which
// executor ran a job, and rows must hold non-overlapping spans to nest.
func (r *recorder) executorSpan(name string, op int, start, end time.Time) {
	r.mu.Lock()
	row := slices.IndexFunc(r.lanes, func(e time.Time) bool { return !e.After(start) })
	if row < 0 {
		row = len(r.lanes)
		r.lanes = append(r.lanes, end)
	} else {
		r.lanes[row] = end
	}
	r.mu.Unlock()
	r.span(r.tr.Track("peachyd executor", row, fmt.Sprintf("executor row %d", row)), name, op, start, end)
}

// selfTimes returns each layer's self time per operation in seconds:
// the duration of the layer's spans minus the part covered by their
// child spans on the same row, summed over rows and divided by ops.
// Spans on one row come from one goroutine, so children never overlap.
func (r *recorder) selfTimes(ops int) map[string]float64 {
	byTrack := map[obs.TrackID][]obs.Span{}
	for _, s := range r.tr.Spans() {
		byTrack[s.Track] = append(byTrack[s.Track], s)
	}
	self := map[string]time.Duration{}
	for _, spans := range byTrack {
		slices.SortStableFunc(spans, func(a, b obs.Span) int {
			if a.Start != b.Start {
				return int(a.Start - b.Start)
			}
			return int(b.Dur - a.Dur) // parents before the children they start with
		})
		var stack []int
		covered := make([]time.Duration, len(spans))
		for i, s := range spans {
			for len(stack) > 0 && spans[stack[len(stack)-1]].Start+spans[stack[len(stack)-1]].Dur <= s.Start {
				stack = stack[:len(stack)-1]
			}
			if len(stack) > 0 {
				p := spans[stack[len(stack)-1]]
				covered[stack[len(stack)-1]] += min(s.Start+s.Dur, p.Start+p.Dur) - s.Start
			}
			stack = append(stack, i)
		}
		for i, s := range spans {
			layer, _, _ := strings.Cut(s.Name, ".")
			self[layer] += s.Dur - covered[i]
		}
	}
	out := map[string]float64{}
	for layer, d := range self {
		out[layer] = d.Seconds() / float64(max(ops, 1))
	}
	return out
}
