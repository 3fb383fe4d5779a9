package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/job"
	"repro/internal/job/runners"
	"repro/internal/obs"
)

// peachyd-mix: the job service on a loopback port with the default
// runners and executors. Two closed-loop clients, each its own tenant,
// submit a seeded sequence drawn evenly from five specs, poll the job
// every 2 ms until it is terminal, then fetch its result. An operation
// is one job from POST sent to result received.
const (
	pdClients = 2
	pdPoll    = 2 * time.Millisecond
)

// pdSpec is one entry of the job mix.
type pdSpec struct {
	name   string // the variant name used in job.run_ms.<name>
	kind   string
	params string
}

var pdMix = []pdSpec{
	{"sandpile-lazy", "sandpile", `{"variant":"lazy-sync"}`},
	{"sandpile-ghost", "sandpile", `{"ranks":2,"ghostWidth":4}`},
	{"mapreduce", "mapreduce", `{"docs":5000}`},
	{"wfsim-greedy", "wfsim", `{"mode":"greedy"}`},
	{"wfsim-tab2", "wfsim", `{"mode":"tab2","fractions":[0.5,0.5,0.5,0.5]}`},
}

type peachyd struct {
	seed int64

	svc    *job.Service
	traced *runnerProbe // non-nil when svc runs the wrapped runners
	want   [][]byte     // the oracle: json of a direct runners.Defaults() run, per spec
	order  [pdClients][]int

	ops      atomic.Int64   // operation identifiers, unique across phases
	next     [pdClients]int // each client's position in its order
	rejected atomic.Int64   // submissions answered with anything but 202
	samples  []pdSample     // traced jobs
}

func newPeachyd(seed int64, _ string) workload { return &peachyd{seed: seed} }

func (w *peachyd) setup(ctx context.Context) error {
	w.close()
	if err := w.start(nil); err != nil {
		return err
	}
	w.want = make([][]byte, len(pdMix))
	defaults := runners.Defaults()
	for i, s := range pdMix {
		res, err := defaults[s.kind].Run(ctx, w.spec(i, "oracle", 0), obs.NewProgress(nil))
		if err != nil {
			return fmt.Errorf("oracle %s: %w", s.name, err)
		}
		if w.want[i], err = json.Marshal(res); err != nil {
			return err
		}
	}
	for c := range w.order {
		w.order[c] = genJobOrder(w.seed, c, len(pdMix), 100_000)
	}
	return nil
}

// start brings up the service; a non-nil probe registers every
// default runner wrapped in it.
func (w *peachyd) start(probe *runnerProbe) error {
	opts := runners.Register()
	if probe != nil {
		opts = nil
		for kind, r := range runners.Defaults() {
			opts = append(opts, job.WithRunner(kind, probedRunner{r, probe}))
		}
	}
	m, err := job.NewManager(opts...)
	if err != nil {
		return err
	}
	svc, err := job.StartService(job.ServiceConfig{Manager: m, APIAddr: "127.0.0.1:0"})
	if err != nil {
		return err
	}
	w.svc, w.traced = svc, probe
	return nil
}

func (w *peachyd) close() {
	if w.svc != nil {
		if err := w.svc.Close(); err != nil {
			fmt.Println("service close:", err)
		}
		w.svc = nil
	}
}

func (w *peachyd) spec(i int, tenant string, op int) job.Spec {
	return job.Spec{Kind: pdMix[i].kind, Tenant: tenant, Name: fmt.Sprintf("op-%d", op),
		Params: json.RawMessage(pdMix[i].params)}
}

// pdSample is the timeline of one traced job.
type pdSample struct {
	mix                                  int
	sent, accepted, ran, ended, terminal time.Time
	done                                 time.Time
	polls                                int
}

func (w *peachyd) run(ctx context.Context, d time.Duration, rec *recorder) (phase, error) {
	if (rec != nil) != (w.traced != nil) {
		w.close()
		var probe *runnerProbe
		if rec != nil {
			probe = &runnerProbe{started: map[string]time.Time{}, ended: map[string]time.Time{}}
		}
		if err := w.start(probe); err != nil {
			return phase{}, err
		}
	}
	var (
		mu   sync.Mutex
		p    phase
		last time.Time
		wg   sync.WaitGroup
	)
	start := time.Now()
	for c := 0; c < pdClients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			client := &http.Client{Transport: &http.Transport{}}
			defer client.CloseIdleConnections()
			for {
				op := int(w.ops.Add(1))
				k := w.order[c][w.next[c]%len(w.order[c])]
				w.next[c]++
				s, err := w.doJob(ctx, client, c, k, op, rec)
				mu.Lock()
				p.attempted++
				if err != nil {
					p.failed++
					fmt.Printf("op %d (%s) failed: %v\n", op, pdMix[k].name, err)
				} else {
					p.lat = append(p.lat, s.done.Sub(s.sent))
					if s.done.After(last) {
						last = s.done
					}
					if rec != nil {
						w.samples = append(w.samples, s)
					}
				}
				mu.Unlock()
				if time.Since(start) >= d || ctx.Err() != nil {
					return
				}
			}
		}(c)
	}
	wg.Wait()
	p.elapsed = last.Sub(start)
	n := fmt.Sprintf("n=%d", len(p.lat))
	p.namedMetrics = []line{
		{name: "jobs_per_s", unit: "1/s", value: float64(len(p.lat)) / p.elapsed.Seconds(), note: n},
		{name: "job_p50_ms", unit: "ms", value: ms(quantile(p.lat, 0.5)), note: n},
		{name: "job_p90_ms", unit: "ms", value: ms(quantile(p.lat, 0.9)), note: n},
	}
	return p, nil
}

// doJob submits one job, polls it to a terminal state, fetches its
// result and checks the bytes against the oracle.
func (w *peachyd) doJob(ctx context.Context, client *http.Client, c, k, op int, rec *recorder) (pdSample, error) {
	s := pdSample{mix: k}
	body, err := json.Marshal(w.spec(k, fmt.Sprintf("tenant-%d", c), op))
	if err != nil {
		return s, err
	}
	api := "http://" + w.svc.Addr() + "/v1/jobs"
	s.sent = time.Now()
	code, resp, err := call(ctx, client, http.MethodPost, api, body)
	s.accepted = time.Now()
	if err != nil {
		return s, err
	}
	if code != http.StatusAccepted {
		w.rejected.Add(1)
		return s, fmt.Errorf("submit: HTTP %d: %s", code, resp)
	}
	var view job.View
	if err := json.Unmarshal(resp, &view); err != nil {
		return s, fmt.Errorf("submit reply: %w", err)
	}
	var track obs.TrackID
	if rec != nil {
		track = rec.tr.Track("peachyd client", c, fmt.Sprintf("client %d", c))
		rec.span(track, "job.submit", op, s.sent, s.accepted)
	}
	for {
		t0 := time.Now()
		code, resp, err = call(ctx, client, http.MethodGet, api+"/"+view.ID, nil)
		s.terminal = time.Now()
		s.polls++
		if rec != nil {
			rec.span(track, "job.poll", op, t0, s.terminal)
		}
		if err != nil {
			return s, err
		}
		if code != http.StatusOK {
			return s, fmt.Errorf("poll: HTTP %d: %s", code, resp)
		}
		if err := json.Unmarshal(resp, &view); err != nil {
			return s, fmt.Errorf("poll reply: %w", err)
		}
		if view.State.Terminal() {
			break
		}
		select {
		case <-time.After(pdPoll):
		case <-ctx.Done():
			return s, ctx.Err()
		}
	}
	if view.State != job.StateSucceeded {
		return s, fmt.Errorf("job %s ended %s: %s", view.ID, view.State, view.Error)
	}
	code, resp, err = call(ctx, client, http.MethodGet, api+"/"+view.ID+"/result", nil)
	s.done = time.Now()
	if err != nil {
		return s, err
	}
	if code != http.StatusOK {
		return s, fmt.Errorf("result: HTTP %d: %s", code, resp)
	}
	if !bytes.Equal(resp, w.want[k]) {
		return s, fmt.Errorf("result of %s differs from a direct run of the same spec", view.ID)
	}
	if rec != nil {
		rec.span(track, "job.result", op, s.terminal, s.done)
		rec.span(track, "bench.job", op, s.sent, s.done)
		s.ran, s.ended = w.traced.times(fmt.Sprintf("op-%d", op))
		rec.executorSpan("runner."+pdMix[k].name, op, s.ran, s.ended)
	}
	return s, nil
}

// call makes one HTTP request and reads the whole reply.
func call(ctx context.Context, client *http.Client, method, url string, body []byte) (int, []byte, error) {
	req, err := http.NewRequestWithContext(ctx, method, url, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	resp, err := client.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	return resp.StatusCode, out, err
}

// runnerProbe records when each job's runner started and returned,
// keyed by the spec name the client gave the job.
type runnerProbe struct {
	mu      sync.Mutex
	started map[string]time.Time
	ended   map[string]time.Time
}

func (p *runnerProbe) times(name string) (time.Time, time.Time) {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.started[name], p.ended[name]
}

// probedRunner wraps a job.Runner registered with job.WithRunner.
type probedRunner struct {
	inner job.Runner
	p     *runnerProbe
}

func (r probedRunner) Validate(spec job.Spec) error { return r.inner.Validate(spec) }

func (r probedRunner) Run(ctx context.Context, spec job.Spec, prog *obs.Progress) (job.Result, error) {
	t0 := time.Now()
	res, err := r.inner.Run(ctx, spec, prog)
	t1 := time.Now()
	r.p.mu.Lock()
	r.p.started[spec.Name], r.p.ended[spec.Name] = t0, t1
	r.p.mu.Unlock()
	return res, err
}

func (w *peachyd) layers() map[string]float64 {
	col := func(keep func(pdSample) bool, f func(pdSample) time.Duration) float64 {
		var xs []time.Duration
		for _, s := range w.samples {
			if keep(s) {
				xs = append(xs, f(s))
			}
		}
		return ms(quantile(xs, 0.5))
	}
	all := func(pdSample) bool { return true }
	polls := 0
	for _, s := range w.samples {
		polls += s.polls
	}
	out := map[string]float64{
		"job.submit_ms": col(all, func(s pdSample) time.Duration { return s.accepted.Sub(s.sent) }),
		// Accepted is when the 202 reached the client, an upper bound
		// on the server's accept, so a runner may start before it:
		// that job waited in no queue.
		"job.queue_wait_ms": col(all, func(s pdSample) time.Duration { return max(0, s.ran.Sub(s.accepted)) }),
		"job.notify_ms":     col(all, func(s pdSample) time.Duration { return s.terminal.Sub(s.ended) }),
		"job.result_ms":     col(all, func(s pdSample) time.Duration { return s.done.Sub(s.terminal) }),
		"job.polls_per_job": float64(polls) / float64(max(len(w.samples), 1)),
		"job.rejected":      float64(w.rejected.Load()),
	}
	for i, m := range pdMix {
		out["job.run_ms."+m.name] = col(func(s pdSample) bool { return s.mix == i },
			func(s pdSample) time.Duration { return s.ended.Sub(s.ran) })
	}
	return out
}
