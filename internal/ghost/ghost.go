// Package ghost implements the fourth sandpile assignment: a
// distributed-memory run of the synchronous automaton using the Ghost
// Cell Pattern (Kjolstad & Snir 2010). MPI ranks are simulated by
// goroutines that own the blocks of an R×C process grid over the
// global grid and exchange halos over links; no memory is shared
// between ranks except the links. WithRanks(n) is the n×1 grid: n
// horizontal strips.
//
// The assignment's central trade-off — redundant computation for
// less-frequent communication — is a first-class parameter here: with
// ghost-zone width K, each rank holds K extra rows or columns per
// interior boundary, exchanges only every K iterations, and in between
// recomputes a shrinking band of its neighbors' cells. The run report
// counts messages, bytes, and redundantly computed cells so the
// trade-off can be measured rather than imagined.
//
// Blocks need corner data once K exceeds one (a cell K steps from a
// block corner depends on the diagonal neighbor's cells), which the
// classic two-phase exchange provides without diagonal messages:
// first east/west halo columns are exchanged over owned rows, then
// north/south halo rows over the full local width, so the
// just-received east/west columns carry the diagonal neighbors'
// corners along. On an n×1 grid the first phase is empty.
//
// Runs are fault-tolerant when configured with WithFaults: halo
// links absorb injected message drop/delay/duplication (internal/
// fault's retransmit + dedupe link), and rank crashes are survived by
// heartbeat detection plus coordinated checkpoint rollback
// (recover.go). Determinism makes recovery exact: the post-recovery
// fixed point and committed topple count equal the fault-free run's.
// WithFleet runs the same decomposition over worker processes
// (fleet.go).
package ghost

import (
	"context"
	"fmt"
	"sync"
	"time"

	"repro/internal/ckpt"
	"repro/internal/fault"
	"repro/internal/grid"
	"repro/internal/obs"
	"repro/internal/sandpile"
)

// Report summarizes a distributed run.
type Report struct {
	sandpile.Result
	Ranks          int
	GhostWidth     int
	Exchanges      int    // halo-exchange rounds started (committed + replayed)
	Messages       int    // point-to-point messages sent (including replays)
	BytesSent      uint64 // payload bytes across all messages
	RedundantCells uint64 // ghost-band cells recomputed beyond owned work
	OwnedCells     uint64 // owned cells computed, summed over steps
	// Recoveries counts coordinated rollbacks (heartbeat-detected rank
	// deaths recovered by restart-from-checkpoint).
	Recoveries int
	// FaultSchedule is the injector's sorted fired-fault log — the
	// reproducibility artifact: same seed, byte-identical schedule.
	// Empty without WithFaults.
	FaultSchedule []string
}

func (r Report) String() string {
	s := fmt.Sprintf("ranks=%d K=%d %v exchanges=%d msgs=%d bytes=%d redundant=%d",
		r.Ranks, r.GhostWidth, r.Result, r.Exchanges, r.Messages, r.BytesSent, r.RedundantCells)
	if r.Recoveries > 0 {
		s += fmt.Sprintf(" recoveries=%d", r.Recoveries)
	}
	return s
}

// message is one halo payload: a K-deep band coalesced into a single
// contiguous row-major buffer — one allocation and one copy per
// exchange instead of one per row, the batched-halo optimization.
// The receiver knows the band geometry from its own decomposition,
// so the wire carries no shape. Senders must build a fresh buffer per
// Send: the link retains the payload for retransmission.
type message struct {
	buf []uint32
}

// placement is one rank's block geometry and the global position of
// its owned block.
type placement struct {
	geom
	top, left int
}

// carve splits an h×w grid over an R×C process grid. Rank pr*C+pc owns
// the block at process-grid position (pr, pc), with a K-wide ghost
// band on each side that has a neighbor; larger blocks come first.
func carve(h, w, R, C, K int) []placement {
	rowOf := splitExtents(h, R)
	colOf := splitExtents(w, C)
	ps := make([]placement, 0, R*C)
	for pr := 0; pr < R; pr++ {
		for pc := 0; pc < C; pc++ {
			p := placement{geom: geom{K: K, ownH: rowOf[pr+1] - rowOf[pr], ownW: colOf[pc+1] - colOf[pc]},
				top: rowOf[pr], left: colOf[pc]}
			if pr > 0 {
				p.gTop = K
			}
			if pr < R-1 {
				p.gBot = K
			}
			if pc > 0 {
				p.gLeft = K
			}
			if pc < C-1 {
				p.gRh = K
			}
			ps = append(ps, p)
		}
	}
	return ps
}

// splitExtents returns n+1 boundaries splitting total cells into n
// near-equal extents, larger blocks first.
func splitExtents(total, n int) []int {
	out := make([]int, n+1)
	base, extra := total/n, total%n
	pos := 0
	for i := 0; i < n; i++ {
		out[i] = pos
		pos += base
		if i < extra {
			pos++
		}
	}
	out[n] = total
	return out
}

// rank is one simulated process. Ranks are rebuilt from checkpoints
// on every recovery generation, so all fields are generation-local.
type rank struct {
	*block
	id        int // linear rank index pr*C+pc
	gen       int
	top, left int // owned block origin in the global grid

	sendW, sendE, sendN, sendS *fault.Link[message]
	recvW, recvE, recvN, recvS *fault.Link[message]

	reports  chan<- roundReport
	proceed  chan bool
	abort    chan struct{}
	inj      *fault.Injector
	linkWait time.Duration // halo-receive timeout; 0 = block forever
	durable  bool          // attach checkpoint rows even without injection

	msgs       int
	bytes      uint64
	redundant  uint64
	ownedCells uint64
	tr         *obs.Tracer // nil when tracing is off
	track      obs.TrackID
}

// runInProcess executes the R×C decomposition as goroutine ranks under
// the shared recovery coordinator. RunContext has validated cfg.
func runInProcess(ctx context.Context, g *grid.Grid, cfg config, R, C int) (Report, error) {
	K, n := cfg.width, R*C
	// Durable resume happens before carving, so the blocks below are
	// cut from the restored committed state rather than the initial
	// one.
	startRound, startTopples := 0, uint64(0)
	var dur *durable
	if cfg.ck != nil {
		var err error
		if startRound, startTopples, err = restoreGhost(cfg.ck, g); err != nil {
			return Report{}, err
		}
		dur = &durable{ck: cfg.ck}
	}
	inj := fault.NewInjector(cfg.faults, cfg.obs)
	hb := cfg.heartbeat
	if hb <= 0 {
		hb = 2 * time.Second
	}
	var linkWait time.Duration
	if inj != nil {
		linkWait = hb / 4 // must detect a dropped halo before the coordinator gives up
	}

	ps := carve(g.H(), g.W(), R, C, K)
	// The scattered owned blocks double as the round-0 checkpoint set.
	ckpts := make([][][]uint32, n)
	for id, p := range ps {
		rows := make([][]uint32, p.ownH)
		for y := range rows {
			rows[y] = append([]uint32(nil), g.Row(p.top + y)[p.left:p.left+p.ownW]...)
		}
		ckpts[id] = rows
	}
	if dur != nil {
		// Reassemble global rows from the committed blocks: each global
		// row crosses the C blocks of one process-grid row.
		h, w := g.H(), g.W()
		dur.encode = func(round int, topples uint64) []byte {
			var e ckpt.Enc
			encodeGhostHeader(&e, round, topples, h, w)
			for pr := 0; pr < R; pr++ {
				for y := 0; y < ps[pr*C].ownH; y++ {
					for pc := 0; pc < C; pc++ {
						for _, v := range ckpts[pr*C+pc][y] {
							e.U32(v)
						}
					}
				}
			}
			return e.Bytes()
		}
	}

	var live []*rank // the most recently launched generation
	launch := func(genID, startRound int, ckpts [][][]uint32) *generation {
		gen := &generation{
			reports: make(chan roundReport, n),
			proceed: make([]chan bool, n),
			abort:   make(chan struct{}),
			wg:      &sync.WaitGroup{},
		}
		rs := make([]*rank, n)
		for id, p := range ps {
			local := grid.New(p.localH(), p.localW())
			for y := 0; y < p.ownH; y++ {
				copy(local.Row(p.gTop + y)[p.gLeft:p.gLeft+p.ownW], ckpts[id][y])
			}
			r := &rank{
				block: newBlock(p.geom, local, startRound),
				id:    id, gen: genID, top: p.top, left: p.left,
				reports: gen.reports,
				proceed: make(chan bool, 1),
				abort:   gen.abort,
				inj:     inj, linkWait: linkWait,
				durable: dur != nil,
			}
			gen.proceed[id] = r.proceed
			if tr := cfg.obs.Tracer; tr != nil {
				r.tr = tr
				r.track = tr.Track("ghost", id, fmt.Sprintf("rank (%d,%d)", id/C, id%C))
			}
			rs[id] = r
		}
		// Wire neighbor links (endpoints are linear rank indices, so
		// message-fault decisions stay keyed to stable identities).
		for id, r := range rs {
			if id%C < C-1 {
				east := rs[id+1]
				toEast := fault.NewLink[message](inj, id, id+1, 1)
				toWest := fault.NewLink[message](inj, id+1, id, 1)
				r.sendE, east.recvW = toEast, toEast
				east.sendW, r.recvE = toWest, toWest
			}
			if id+C < n {
				south := rs[id+C]
				toSouth := fault.NewLink[message](inj, id, id+C, 1)
				toNorth := fault.NewLink[message](inj, id+C, id, 1)
				r.sendS, south.recvN = toSouth, toSouth
				south.sendN, r.recvS = toNorth, toNorth
			}
		}
		gen.harvest = func(rep *Report) {
			for _, r := range rs {
				rep.Messages += r.msgs
				rep.BytesSent += r.bytes
				rep.RedundantCells += r.redundant
				rep.OwnedCells += r.ownedCells
			}
		}
		for _, r := range rs {
			gen.wg.Add(1)
			go func(r *rank) {
				defer gen.wg.Done()
				r.run(startRound)
			}(r)
		}
		live = rs
		return gen
	}

	rep := Report{Ranks: n, GhostWidth: K}
	if err := coordinate(ctx, n, K, cfg.maxIters, inj, hb, launch, ckpts, &rep, dur, startRound, startTopples, cfg.obs); err != nil {
		return rep, err
	}

	// Gather: copy owned blocks back into the global grid.
	for _, r := range live {
		for y := 0; y < r.ownH; y++ {
			copy(g.Row(r.top + y)[r.left:r.left+r.ownW],
				r.cur.Row(r.gTop + y)[r.gLeft:r.gLeft+r.ownW])
		}
	}
	rep.FaultSchedule = inj.Schedule()
	return rep, nil
}

// run executes one simulated rank: rounds of K synchronous steps over
// a shrinking valid band, a report (heartbeat + checkpoint) to the
// coordinator, and the coordinator's continue verdict. An injected
// crash makes the rank go silent mid-protocol — exactly the failure
// mode the coordinator's heartbeat timeout exists to catch.
func (r *rank) run(startRound int) {
	for round := startRound + 1; ; round++ {
		if r.inj.CrashAt(r.id, round) {
			return
		}
		// Fill (or refresh) ghost zones before the round's K steps.
		// The first exchange distributes the scattered initial state's
		// boundary cells; later ones refresh post-round state.
		exTS := r.tr.Now()
		if !r.exchange() {
			return // aborted, or a peer died and the link drained
		}
		if r.tr != nil {
			r.tr.Span(r.track, "exchange", exTS, r.tr.Now()-exTS,
				obs.Arg{Key: "K", Value: int64(r.K)})
		}
		compTS := r.tr.Now()
		r.step(false)
		r.redundant += r.last.redundant
		r.ownedCells += uint64(r.K * r.ownH * r.ownW)
		if r.tr != nil {
			r.tr.Span(r.track, "compute", compTS, r.tr.Now()-compTS,
				obs.Arg{Key: "changes", Value: int64(r.last.changes)})
		}
		// With fault injection or durability on, the report carries a
		// checkpoint of the owned cells; the coordinator installs it
		// once the whole round commits.
		var rows [][]uint32
		if r.inj != nil || r.durable {
			rows = make([][]uint32, r.ownH)
			for y := range rows {
				rows[y] = append([]uint32(nil), r.cur.Row(r.gTop + y)[r.gLeft:r.gLeft+r.ownW]...)
			}
		}
		select {
		case r.reports <- roundReport{gen: r.gen, id: r.id, round: round, changes: r.last.changes, rows: rows}:
		case <-r.abort:
			return
		}
		select {
		case cont := <-r.proceed:
			if !cont {
				return
			}
		case <-r.abort:
			return
		}
	}
}

// exchange performs the two-phase halo exchange: E/W columns over
// owned rows first, then N/S rows over the full local width (carrying
// the corners). It returns false when the generation aborted or a
// receive found the peer dead (timeout with nothing to retransmit).
func (r *rank) exchange() bool {
	K := r.K
	// Phase 1: east/west columns, owned rows only, coalesced into one
	// flat ownH×K message per neighbor.
	colPayload := func(x0 int) message {
		buf := make([]uint32, 0, r.ownH*K)
		for y := 0; y < r.ownH; y++ {
			buf = append(buf, r.cur.Row(r.gTop + y)[x0:x0+K]...)
		}
		return message{buf: buf}
	}
	if r.sendW != nil {
		if !r.sendW.Send(colPayload(r.gLeft), r.abort) {
			return false
		}
		r.msgs++
		r.bytes += uint64(K * r.ownH * 4)
	}
	if r.sendE != nil {
		if !r.sendE.Send(colPayload(r.gLeft+r.ownW-K), r.abort) {
			return false
		}
		r.msgs++
		r.bytes += uint64(K * r.ownH * 4)
	}
	if r.recvW != nil {
		m, ok := r.recvW.Recv(r.linkWait, r.abort)
		if !ok {
			return false
		}
		for y := 0; y < r.ownH; y++ {
			copy(r.cur.Row(r.gTop + y)[0:K], m.buf[y*K:(y+1)*K])
		}
	}
	if r.recvE != nil {
		m, ok := r.recvE.Recv(r.linkWait, r.abort)
		if !ok {
			return false
		}
		for y := 0; y < r.ownH; y++ {
			copy(r.cur.Row(r.gTop + y)[r.gLeft+r.ownW:], m.buf[y*K:(y+1)*K])
		}
	}

	// Phase 2: north/south rows over the full local width, including
	// the halo columns just received — this is what fills corners.
	// One flat K×W message per neighbor.
	W := r.cur.W()
	rowPayload := func(y0 int) message {
		buf := make([]uint32, 0, K*W)
		for k := 0; k < K; k++ {
			buf = append(buf, r.cur.Row(y0+k)...)
		}
		return message{buf: buf}
	}
	if r.sendN != nil {
		if !r.sendN.Send(rowPayload(r.gTop), r.abort) {
			return false
		}
		r.msgs++
		r.bytes += uint64(K * W * 4)
	}
	if r.sendS != nil {
		if !r.sendS.Send(rowPayload(r.gTop+r.ownH-K), r.abort) {
			return false
		}
		r.msgs++
		r.bytes += uint64(K * W * 4)
	}
	if r.recvN != nil {
		m, ok := r.recvN.Recv(r.linkWait, r.abort)
		if !ok {
			return false
		}
		for k := 0; k < K; k++ {
			copy(r.cur.Row(k), m.buf[k*W:(k+1)*W])
		}
	}
	if r.recvS != nil {
		m, ok := r.recvS.Recv(r.linkWait, r.abort)
		if !ok {
			return false
		}
		for k := 0; k < K; k++ {
			copy(r.cur.Row(r.gTop+r.ownH+k), m.buf[k*W:(k+1)*W])
		}
	}
	return true
}
