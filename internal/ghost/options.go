package ghost

// options.go is the constructor for distributed runs: a
// functional-options Runner over one R×C block decomposition (strips
// are the n×1 grid) that threads context.Context through and carries
// the fault-injection plan, the checkpointer and the fleet.

import (
	"context"
	"fmt"
	"time"

	"repro/internal/ckpt"
	"repro/internal/fault"
	"repro/internal/grid"
	pnet "repro/internal/net"
	"repro/internal/obs"
	"repro/internal/sandpile"
)

// config is the configuration a run is built from.
type config struct {
	ranks              int // n×1 process grid; set via WithRanks
	procRows, procCols int // R×C process grid; set via WithProcessGrid
	width              int
	maxIters           int
	obs                obs.Sink
	faults             *fault.Plan
	heartbeat          time.Duration
	ck                 *ckpt.Checkpointer
	fleet              *pnet.FleetConfig
}

// Option configures a Runner built with New.
type Option func(*config)

// WithRanks selects the strip decomposition with n simulated ranks:
// the n×1 process grid.
func WithRanks(n int) Option { return func(c *config) { c.ranks = n } }

// WithProcessGrid selects the 2-D block decomposition with a
// rows x cols process grid (overrides WithRanks).
func WithProcessGrid(rows, cols int) Option {
	return func(c *config) { c.procRows, c.procCols = rows, cols }
}

// WithWidth sets the ghost-zone width K: halo rows/columns exchanged
// per boundary and iterations between exchanges.
func WithWidth(k int) Option { return func(c *config) { c.width = k } }

// WithMaxIters bounds runaway runs (0 means sandpile.MaxIterations).
func WithMaxIters(n int) Option { return func(c *config) { c.maxIters = n } }

// WithObs attaches the observability layer.
func WithObs(sink obs.Sink) Option { return func(c *config) { c.obs = sink } }

// WithFaults enables deterministic fault injection under the plan:
// rank crashes and halo-message drop/delay/duplication, recovered via
// heartbeat detection and coordinated checkpoint rollback. nil
// disables injection (and checkpointing).
func WithFaults(p *fault.Plan) Option { return func(c *config) { c.faults = p } }

// WithHeartbeat sets how long the coordinator waits for a round's
// reports before declaring a rank dead (default 2s; only meaningful
// with WithFaults). Halo receives time out at a quarter of this.
func WithHeartbeat(d time.Duration) Option { return func(c *config) { c.heartbeat = d } }

// WithFleet runs the decomposition over a worker fleet (see fleet.go):
// the ranks become processes (or goroutines, on the chan transport)
// joined through fc.Transport, supervised with heartbeat leases and
// respawn. fc.Workers and fc.Proto are set by the run; everything else
// — transport, listen address, lease, backoff, Spawn hook — is the
// caller's. Mutually exclusive with WithFaults: fleet crashes are real
// process deaths, not injected ones.
func WithFleet(fc *pnet.FleetConfig) Option { return func(c *config) { c.fleet = fc } }

// WithCheckpoint enables durable checkpoint/restart (see ckpt.go):
// committed rounds are persisted through ck at its cadence, and a
// resuming checkpointer restores the newest valid snapshot before the
// run starts, continuing from the committed round it holds. nil
// disables durability.
func WithCheckpoint(ck *ckpt.Checkpointer) Option { return func(c *config) { c.ck = ck } }

// Runner is a configured distributed run over one grid.
type Runner struct {
	g   *grid.Grid
	cfg config
}

// New builds a distributed run of g, e.g.
//
//	ghost.New(g, ghost.WithRanks(4), ghost.WithWidth(2), ghost.WithFaults(plan))
func New(g *grid.Grid, opts ...Option) *Runner {
	r := &Runner{g: g, cfg: config{width: 1}}
	for _, opt := range opts {
		opt(&r.cfg)
	}
	return r
}

// Run executes the configured run to the fixed point.
func (r *Runner) Run() (Report, error) { return r.RunContext(context.Background()) }

// RunContext is Run with cancellation: the coordinator stops
// launching rounds once ctx is cancelled and returns ctx.Err().
func (r *Runner) RunContext(ctx context.Context) (Report, error) {
	g, cfg := r.g, r.cfg
	R, C := cfg.procRows, cfg.procCols
	if R == 0 && C == 0 {
		R, C = cfg.ranks, 1
	}
	if R <= 0 || C <= 0 {
		return Report{}, fmt.Errorf("ghost: invalid process grid %dx%d (set WithRanks or WithProcessGrid)", R, C)
	}
	if cfg.width <= 0 {
		return Report{}, fmt.Errorf("ghost: GhostWidth must be >= 1, got %d", cfg.width)
	}
	if cfg.maxIters <= 0 {
		cfg.maxIters = sandpile.MaxIterations
	}
	// Every block must hold a K-deep band for each neighbor it has, so
	// a single row (column) of ranks puts no bound on the height (width).
	K := cfg.width
	if (R > 1 && g.H()/R < K) || (C > 1 && g.W()/C < K) {
		return Report{}, fmt.Errorf("ghost: blocks of %dx%d grid over %dx%d ranks smaller than K=%d",
			g.H(), g.W(), R, C, K)
	}

	// Taken before any checkpoint restore, so a resumed run reports the
	// same Absorbed total as an uninterrupted one.
	before := g.Sum()
	run := runInProcess
	if cfg.fleet != nil {
		run = runFleet
	}
	rep, err := run(ctx, g, cfg, R, C)
	if err != nil {
		return rep, err
	}
	g.ClearHalo()
	rep.Absorbed = before - g.Sum()
	if m := cfg.obs.Metrics; m != nil {
		m.Counter("ghost.exchanges").Add(int64(rep.Exchanges))
		m.Counter("ghost.halo.messages").Add(int64(rep.Messages))
		m.Counter("ghost.halo.bytes").Add(int64(rep.BytesSent))
		m.Counter("ghost.cells.redundant").Add(int64(rep.RedundantCells))
		m.Counter("ghost.cells.owned").Add(int64(rep.OwnedCells))
	}
	return rep, nil
}
