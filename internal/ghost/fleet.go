package ghost

// fleet.go runs the distributed sandpile over real process boundaries:
// the goroutine ranks of ghost.go become fleet workers
// connected through internal/net, so a SIGKILL is a real lost peer
// detected by a heartbeat lease rather than a simulated crash.
//
// Workers are stateful. Each keeps its rank's block, ghost frame
// included, in two buffers it steps between across rounds. A round
// moves only halos, relayed through the coordinator: it sends each rank
// its incoming K-wide ghost bands, carved from the global grid, and the
// rank answers with its change count and its outgoing K-wide owned
// border, which the coordinator writes back into the global grid at
// the round's commit. Traffic per round is O(perimeter·K), the same as
// the in-process paths.
//
// The global grid is therefore exact on every border, but whole only
// where a report carried the whole owned block instead of its border:
// at snapshot rounds (every snapshotEvery rounds, whenever the
// checkpointer is due, and at the iteration budget), and on the first
// round of each stretch in which a rank changes nothing. A quiet
// rank's block stays as reported, so at the fixed point — every rank
// quiet — the global grid is complete without a final pull. The only
// other whole-block frame is the load that installs a block in a
// worker.
//
// Recovery is coordinated rollback to the last snapshot: when a loaded
// worker dies (or re-registers, which means the same), every rank is
// reloaded from the snapshot and the rounds since are replayed. The
// automaton is deterministic, so the replay reproduces the lost rounds
// byte for byte. A rank that stays dead past the respawn budget is
// declared lost and its block is stepped by the coordinator itself,
// through the same block stepper the workers run: the run degrades to
// fewer processes, never to a wrong answer.

import (
	"context"
	"encoding/binary"
	"fmt"
	"slices"

	"repro/internal/ckpt"
	"repro/internal/grid"
	pnet "repro/internal/net"
	"repro/internal/obs"
	"repro/internal/sandpile"
)

// GhostProto names the fleet wire protocol version.
const GhostProto = "ghost/2"

// snapshotEvery is the round cadence at which the coordinator pulls
// whole blocks to refresh its rollback snapshot. It bounds the replay
// after a crash; between pulls only halos travel.
const snapshotEvery = 64

// Fleet application frame types.
const (
	// msgLoad (coordinator -> worker): install a block — geometry, the
	// round the state belongs to, and the whole local window (owned
	// block plus ghost frame). Sent once per registration, and to
	// every rank on a rollback. Not answered.
	msgLoad uint8 = pnet.FrameApp + iota
	// msgHalo (coordinator -> worker): run one round — its number, a
	// flag asking for the whole owned block in the report, and the
	// rank's incoming ghost bands.
	msgHalo
	// msgReport (worker -> coordinator): the round's change and
	// redundant-cell counts, then either the outgoing owned border or,
	// when flagged, the whole owned block.
	msgReport
	// msgStop (coordinator -> worker): the run is over; exit cleanly.
	msgStop
)

// geom is the per-rank block geometry both sides compute messages from.
type geom struct {
	K          int
	ownH, ownW int
	gTop, gBot int
	gLeft, gRh int
}

func (ge geom) localH() int { return ge.gTop + ge.ownH + ge.gBot }
func (ge geom) localW() int { return ge.gLeft + ge.ownW + ge.gRh }

// rect is a cell rectangle [y0,y1) x [x0,x1) in rank-local coordinates.
type rect struct{ y0, y1, x0, x1 int }

func (r rect) cells() int { return (r.y1 - r.y0) * (r.x1 - r.x0) }

// shape is a geometry with the rectangles its frames are cut from.
type shape struct {
	geom
	owned rect
	// bands is the ghost frame: top and bottom over the full local
	// width (they carry the 2-D corners), then left and right over the
	// owned rows.
	bands []rect
	// border is the owned cells within K of a neighbor — everything a
	// neighbor's bands are cut from: top and bottom rows, then the
	// left and right columns between them.
	border                 []rect
	bandCells, borderCells int
}

func newShape(ge geom) shape {
	H, W := ge.localH(), ge.localW()
	oy0, oy1 := ge.gTop, ge.gTop+ge.ownH
	ox0, ox1 := ge.gLeft, ge.gLeft+ge.ownW
	sh := shape{geom: ge, owned: rect{oy0, oy1, ox0, ox1}}
	add := func(list *[]rect, n *int, r rect) {
		if r.y1 > r.y0 && r.x1 > r.x0 {
			*list = append(*list, r)
			*n += r.cells()
		}
	}
	add(&sh.bands, &sh.bandCells, rect{0, oy0, 0, W})
	add(&sh.bands, &sh.bandCells, rect{oy1, H, 0, W})
	add(&sh.bands, &sh.bandCells, rect{oy0, oy1, 0, ox0})
	add(&sh.bands, &sh.bandCells, rect{oy0, oy1, ox1, W})

	side := func(has int, room int) int {
		if has == 0 {
			return 0
		}
		return min(ge.K, room)
	}
	bt := side(ge.gTop, ge.ownH)
	bb := side(ge.gBot, ge.ownH-bt)
	bl := side(ge.gLeft, ge.ownW)
	br := side(ge.gRh, ge.ownW-bl)
	add(&sh.border, &sh.borderCells, rect{oy0, oy0 + bt, ox0, ox1})
	add(&sh.border, &sh.borderCells, rect{oy1 - bb, oy1, ox0, ox1})
	add(&sh.border, &sh.borderCells, rect{oy0 + bt, oy1 - bb, ox0, ox0 + bl})
	add(&sh.border, &sh.borderCells, rect{oy0 + bt, oy1 - bb, ox1 - br, ox1})
	return sh
}

// putRect appends r's cells, read from src at offset (dy, dx), as
// little-endian u32s.
func putRect(buf []byte, src *grid.Grid, r rect, dy, dx int) []byte {
	n := len(buf)
	buf = slices.Grow(buf, 4*r.cells())[:n+4*r.cells()]
	out := buf[n:]
	for y := r.y0; y < r.y1; y++ {
		for _, v := range src.Row(y + dy)[r.x0+dx : r.x1+dx] {
			binary.LittleEndian.PutUint32(out, v)
			out = out[4:]
		}
	}
	return buf
}

// getRect fills r's cells in dst at offset (dy, dx) from p and returns
// the rest of p. The caller has checked that p is long enough.
func getRect(p []byte, dst *grid.Grid, r rect, dy, dx int) []byte {
	for y := r.y0; y < r.y1; y++ {
		row := dst.Row(y + dy)[r.x0+dx : r.x1+dx]
		for i := range row {
			row[i] = binary.LittleEndian.Uint32(p)
			p = p[4:]
		}
	}
	return p
}

// loadHeader is the fixed prefix of a load frame: seven u32 geometry
// fields and the u64 round.
const loadHeader = 7*4 + 8

// encodeLoad appends the load frame for rank ge, whose owned block
// starts at (top, left) in src: geometry, round, then the whole local
// window in row-major order.
func encodeLoad(buf []byte, src *grid.Grid, ge geom, top, left, round int) []byte {
	for _, v := range []int{ge.K, ge.ownH, ge.ownW, ge.gTop, ge.gBot, ge.gLeft, ge.gRh} {
		buf = binary.LittleEndian.AppendUint32(buf, uint32(v))
	}
	buf = binary.LittleEndian.AppendUint64(buf, uint64(round))
	return putRect(buf, src, rect{0, ge.localH(), 0, ge.localW()}, top-ge.gTop, left-ge.gLeft)
}

// decodeLoad rebuilds the geometry, round, and local window of a load
// frame. The geometry is checked against the payload length before
// anything is allocated, so a corrupt frame cannot size an allocation.
func decodeLoad(p []byte) (round int, ge geom, local *grid.Grid, err error) {
	d := ckpt.NewDec(p)
	var f [7]uint32
	for i := range f {
		f[i] = d.U32()
	}
	r := d.U64()
	if d.Err() != nil {
		return 0, geom{}, nil, fmt.Errorf("ghost: short load frame")
	}
	body := uint64(len(p) - loadHeader)
	k := uint64(f[0])
	bandOK := func(v uint32) bool { return v == 0 || uint64(v) == k }
	if k == 0 || f[1] == 0 || f[2] == 0 ||
		!bandOK(f[3]) || !bandOK(f[4]) || !bandOK(f[5]) || !bandOK(f[6]) || r > 1<<62 {
		return 0, geom{}, nil, fmt.Errorf("ghost: malformed load geometry")
	}
	// Each dimension is below 2^34; bounding both by the payload before
	// multiplying keeps the product from overflowing.
	h := uint64(f[3]) + uint64(f[1]) + uint64(f[4])
	w := uint64(f[5]) + uint64(f[2]) + uint64(f[6])
	if h > body/4 || w > body/4/h || h*w*4 != body {
		return 0, geom{}, nil, fmt.Errorf("ghost: load frame holds %d bytes for a %dx%d window", body, h, w)
	}
	ge = geom{K: int(f[0]), ownH: int(f[1]), ownW: int(f[2]),
		gTop: int(f[3]), gBot: int(f[4]), gLeft: int(f[5]), gRh: int(f[6])}
	local = grid.New(int(h), int(w))
	getRect(p[loadHeader:], local, rect{0, int(h), 0, int(w)}, 0, 0)
	return int(r), ge, local, nil
}

// haloHeader is the fixed prefix of a halo frame: u64 round, u8 flag.
const haloHeader = 8 + 1

// encodeHalo appends rank sh's halo frame for round, cutting its bands
// from src at offset (dy, dx) — the rank's window origin in src.
func encodeHalo(buf []byte, src *grid.Grid, sh shape, dy, dx, round int, full bool) []byte {
	buf = binary.LittleEndian.AppendUint64(buf, uint64(round))
	buf = append(buf, boolByte(full))
	for _, r := range sh.bands {
		buf = putRect(buf, src, r, dy, dx)
	}
	return buf
}

// parseHalo splits a halo frame for a rank of shape sh. The length must
// be exactly what sh's bands need.
func parseHalo(p []byte, sh shape) (round int, full bool, bands []byte, err error) {
	if len(p) != haloHeader+4*sh.bandCells || p[8] > 1 {
		return 0, false, nil, fmt.Errorf("ghost: malformed halo frame (%d bytes, want %d)",
			len(p), haloHeader+4*sh.bandCells)
	}
	return int(binary.LittleEndian.Uint64(p)), p[8] == 1, p[haloHeader:], nil
}

// report is one decoded msgReport.
type report struct {
	round     int
	changes   int
	redundant uint64
	full      bool   // cells is the owned block, not the border
	cells     []byte // little-endian u32s, in rect order
}

// reportHeader is the fixed prefix of a report: round, changes,
// redundant (u64 each), then the u8 full flag.
const reportHeader = 3*8 + 1

// encodeReport appends a report whose cells are read from src at
// offset (dy, dx): the owned block when full, else the border.
func encodeReport(buf []byte, rp report, src *grid.Grid, sh shape, dy, dx int) []byte {
	buf = binary.LittleEndian.AppendUint64(buf, uint64(rp.round))
	buf = binary.LittleEndian.AppendUint64(buf, uint64(rp.changes))
	buf = binary.LittleEndian.AppendUint64(buf, rp.redundant)
	buf = append(buf, boolByte(rp.full))
	for _, r := range sh.reportRects(rp.full) {
		buf = putRect(buf, src, r, dy, dx)
	}
	return buf
}

// decodeReport parses a report from a rank of shape sh; its length
// must be exactly what the header's flag says sh's cells need.
func decodeReport(p []byte, sh shape) (report, error) {
	if len(p) < reportHeader || p[reportHeader-1] > 1 {
		return report{}, fmt.Errorf("ghost: malformed report header")
	}
	rp := report{
		round:     int(binary.LittleEndian.Uint64(p)),
		changes:   int(binary.LittleEndian.Uint64(p[8:])),
		redundant: binary.LittleEndian.Uint64(p[16:]),
		full:      p[reportHeader-1] == 1,
		cells:     p[reportHeader:],
	}
	n := sh.borderCells
	if rp.full {
		n = sh.owned.cells()
	}
	if len(rp.cells) != 4*n || rp.round < 0 || rp.changes < 0 {
		return report{}, fmt.Errorf("ghost: malformed report (%d cell bytes, want %d)", len(rp.cells), 4*n)
	}
	return rp, nil
}

// reportRects is the cell layout of a report.
func (sh shape) reportRects(full bool) []rect {
	if full {
		return []rect{sh.owned}
	}
	return sh.border
}

// writeReport installs a report's cells into dst at offset (dy, dx).
func writeReport(dst *grid.Grid, rp report, sh shape, dy, dx int) {
	p := rp.cells
	for _, r := range sh.reportRects(rp.full) {
		p = getRect(p, dst, r, dy, dx)
	}
}

func boolByte(b bool) byte {
	if b {
		return 1
	}
	return 0
}

// block is one rank's state between rounds: the local window in two
// buffers stepped between, and the outcome of the last round. Workers
// run one; the coordinator runs one per lost rank.
type block struct {
	shape
	cur, next *grid.Grid
	round     int // the round cur holds
	last      report
	// synced: the coordinator's copy of the owned block equals cur.
	// True after a load; a full report makes it true, a changing round
	// reported by border makes it false.
	synced bool
}

func newBlock(ge geom, local *grid.Grid, round int) *block {
	return &block{shape: newShape(ge), cur: local,
		next: grid.New(local.H(), local.W()), round: round, synced: true}
}

// step runs round b.round+1: K synchronous steps over the local window
// with the shrinking-valid-band rule (a strip is the gLeft=gRh=0
// case). In-process ranks, fleet workers and the coordinator's lost
// ranks all step through it. The owned-region change count and the
// redundant ghost-band cell count land in b.last; the owned block is
// reported whole when flagged, or when the round changed nothing and
// the coordinator's copy is stale — so every quiet rank's block is
// already in the global grid when the run converges.
func (b *block) step(flagFull bool) {
	ge := b.geom
	cur, next := b.cur, b.next
	H, W := cur.H(), cur.W()
	changes, redundant := 0, uint64(0)
	for s := 1; s <= ge.K; s++ {
		y0, y1, x0, x1 := 0, H, 0, W
		if ge.gTop > 0 {
			y0 = s
		}
		if ge.gBot > 0 {
			y1 = H - s
		}
		if ge.gLeft > 0 {
			x0 = s
		}
		if ge.gRh > 0 {
			x1 = W - s
		}
		for y := y0; y < y1; y++ {
			if y >= ge.gTop && y < ge.gTop+ge.ownH {
				if x0 < ge.gLeft {
					sandpile.SyncRow(cur, next, y, x0, ge.gLeft)
					redundant += uint64(ge.gLeft - x0)
				}
				changes += sandpile.SyncRow(cur, next, y, ge.gLeft, ge.gLeft+ge.ownW)
				if right := ge.gLeft + ge.ownW; x1 > right {
					sandpile.SyncRow(cur, next, y, right, x1)
					redundant += uint64(x1 - right)
				}
			} else {
				sandpile.SyncRow(cur, next, y, x0, x1)
				redundant += uint64(x1 - x0)
			}
		}
		cur, next = next, cur
	}
	b.cur, b.next = cur, next
	b.round++
	full := flagFull || (changes == 0 && !b.synced)
	b.synced = full || (changes == 0 && b.synced)
	b.last = report{round: b.round, changes: changes, redundant: redundant, full: full}
}

// FleetWorker joins the fleet at cfg.Join and serves ghost rounds
// until the coordinator sends stop. It is the -worker entry point for
// fleet processes; cfg.Proto defaults to GhostProto.
func FleetWorker(ctx context.Context, cfg pnet.WorkerConfig) error {
	if cfg.Proto == "" {
		cfg.Proto = GhostProto
	}
	var (
		b   *block
		out []byte // the last report, re-sent verbatim for a repeated round
	)
	return pnet.RunWorker(ctx, cfg, func(m pnet.Msg, send func(pnet.Msg) error) error {
		switch m.Type {
		case msgLoad:
			round, ge, local, err := decodeLoad(m.Payload)
			if err != nil {
				return err
			}
			b, out = newBlock(ge, local, round), out[:0]
			return nil
		case msgHalo:
			if b == nil {
				return fmt.Errorf("ghost: halo frame before any load")
			}
			round, full, bands, err := parseHalo(m.Payload, b.shape)
			if err != nil {
				return err
			}
			switch {
			case round == b.round && len(out) > 0:
				// Already computed: answer again without stepping.
				return send(pnet.Msg{Type: msgReport, Payload: out})
			case round != b.round+1:
				return fmt.Errorf("ghost: halo for round %d, block holds round %d", round, b.round)
			}
			for _, r := range b.bands {
				bands = getRect(bands, b.cur, r, 0, 0)
			}
			b.step(full)
			out = encodeReport(out[:0], b.last, b.cur, b.shape, 0, 0)
			return send(pnet.Msg{Type: msgReport, Payload: out})
		case msgStop:
			return pnet.ErrWorkerDone
		default:
			return fmt.Errorf("ghost: unexpected frame type %d", m.Type)
		}
	})
}

// fleetRank is the coordinator's view of one rank.
type fleetRank struct {
	shape
	id        int
	top, left int // owned block origin in the global grid
	dy, dx    int // local window origin in the global grid
	// inc is the worker incarnation holding this rank's block (0: none
	// loaded); frames go to that incarnation only. joined is the
	// newest incarnation seen, so a late join event for an older one
	// is ignored.
	inc, joined int
	// local steps the block on the coordinator once the rank is lost.
	local  *block
	got    bool   // reported the current round
	rpt    report // that report, committed at the round's end
	synced bool   // the global grid holds this rank's whole block
}

// fleetRun is the coordinator's state machine, driven by one goroutine
// off the coordinator's event channel.
type fleetRun struct {
	cfg   config
	co    *pnet.Coordinator
	g     *grid.Grid
	ranks []*fleetRank
	rep   Report
	dur   *durable
	buf   []byte // frame encode scratch; Send does not retain it

	committed int
	topples   uint64
	// snap is the whole global grid at snapRound: the rollback point.
	snap        *grid.Grid
	snapRound   int
	snapTopples uint64
	ckRound     int // round the checkpointer is owed, 0 if none
	started     int // highest round started so far

	round, need, total int
	full, done         bool
}

// runFleet drives the R×C decomposition over a worker fleet. The
// caller's grid g is the global state; on return it holds the fixed
// point, exactly as the in-process run leaves it. RunContext has
// validated cfg.
func runFleet(ctx context.Context, g *grid.Grid, cfg config, R, C int) (Report, error) {
	if cfg.faults != nil {
		return Report{}, fmt.Errorf("ghost: fleet mode injects no simulated faults; kill the worker processes instead")
	}
	K, n := cfg.width, R*C
	f := &fleetRun{cfg: cfg, g: g, rep: Report{Ranks: n, GhostWidth: K}}
	if cfg.ck != nil {
		var err error
		if f.committed, f.topples, err = restoreGhost(cfg.ck, g); err != nil {
			return Report{}, err
		}
		h, w := g.H(), g.W()
		f.dur = &durable{ck: cfg.ck, encode: func(round int, topples uint64) []byte {
			var e ckpt.Enc
			encodeGhostHeader(&e, round, topples, h, w)
			for y := 0; y < h; y++ {
				for _, v := range g.Row(y) {
					e.U32(v)
				}
			}
			return e.Bytes()
		}}
	}
	f.snap, f.snapRound, f.snapTopples = g.Clone(), f.committed, f.topples
	f.started = f.committed

	for id, p := range carve(g.H(), g.W(), R, C, K) {
		f.ranks = append(f.ranks, &fleetRank{shape: newShape(p.geom), id: id,
			top: p.top, left: p.left, dy: p.top - p.gTop, dx: p.left - p.gLeft, synced: true})
	}

	fc := *cfg.fleet
	fc.Workers = n
	fc.Proto = GhostProto
	if !fc.Obs.Enabled() {
		fc.Obs = cfg.obs
	}
	co, err := pnet.NewCoordinator(fc)
	if err != nil {
		return Report{}, err
	}
	defer co.Close()
	f.co = co

	if err := f.drive(ctx); err != nil {
		return f.rep, err
	}
	for id := range f.ranks {
		co.Send(id, pnet.Msg{Type: msgStop}) // best effort
	}
	rep := f.rep
	rep.Iterations = f.committed * K
	rep.Topples = f.topples
	return rep, nil
}

// drive runs rounds off the event channel until the run ends.
func (f *fleetRun) drive(ctx context.Context) error {
	f.startRound()
	for {
		// Commit every round that is complete; with lost ranks stepped
		// here, several can complete without an event.
		for f.need == 0 {
			if err := f.commit(); err != nil || f.done {
				return err
			}
			f.startRound()
		}
		var ev pnet.Event
		select {
		case <-ctx.Done():
			return ctx.Err()
		case e, ok := <-f.co.Events():
			if !ok {
				return fmt.Errorf("ghost: fleet coordinator closed")
			}
			ev = e
		}
		r := f.ranks[ev.Rank]
		switch ev.Kind {
		case pnet.PeerJoined:
			if r.local != nil || ev.Incarnation <= r.joined {
				continue
			}
			r.joined = ev.Incarnation
			if r.inc != 0 {
				// A loaded worker re-registered: its block is gone.
				r.inc = 0
				f.rollback(r, "fleet rank re-registered")
			}
			if f.load(r, ev.Incarnation) && !r.got {
				f.sendHalo(r)
			}
		case pnet.PeerDead:
			if ev.Incarnation == r.inc {
				r.inc = 0
				f.rollback(r, "fleet rank died")
			}
		case pnet.PeerLost:
			f.cfg.obs.Log.Event(obs.LevelError, "ghost", "fleet rank lost; computing its block locally",
				obs.Arg{Key: "rank", Value: int64(r.id)})
			f.loadLocal(r)
			if r.inc != 0 {
				r.inc = 0
				f.rollback(r, "fleet rank lost")
			} else if !r.got {
				f.stepLocal(r)
			}
		case pnet.PeerMsg:
			if err := f.onReport(r, ev); err != nil {
				return err
			}
		}
	}
}

// startRound begins round committed+1: every loaded worker gets its
// halo frame, and every lost rank is stepped here.
func (f *fleetRun) startRound() {
	f.round = f.committed + 1
	f.need, f.total = len(f.ranks), 0
	if f.round > f.started {
		// The checkpointer is consulted once per round, when the round
		// first starts, so a replay keeps its verdict.
		f.started = f.round
		if f.dur != nil && f.dur.ck.Due(int64(f.round)) {
			f.ckRound = f.round
		}
	}
	f.full = f.round%snapshotEvery == 0 || f.round == f.ckRound ||
		f.round*f.cfg.width >= f.cfg.maxIters
	f.rep.Exchanges++
	for _, r := range f.ranks {
		r.got = false
		switch {
		case r.local != nil:
			f.stepLocal(r)
		case r.inc != 0:
			f.sendHalo(r)
		}
	}
}

// send delivers one frame to the rank's loaded incarnation and counts
// it. A failed send means that incarnation is going down; its PeerDead
// event triggers the recovery.
func (f *fleetRun) send(r *fleetRank, typ uint8, p []byte) bool {
	if f.co.SendTo(r.id, r.inc, pnet.Msg{Type: typ, Payload: p}) != nil {
		return false
	}
	f.rep.Messages++
	f.rep.BytesSent += uint64(len(p))
	return true
}

func (f *fleetRun) sendHalo(r *fleetRank) {
	f.buf = encodeHalo(f.buf[:0], f.g, r.shape, r.dy, r.dx, f.round, f.full)
	f.send(r, msgHalo, f.buf)
}

// load installs the snapshot block in worker incarnation inc. Loads
// happen only while the committed round is the snapshot round: a rank
// without a block holds every round up, and losing one rolls back.
func (f *fleetRun) load(r *fleetRank, inc int) bool {
	r.inc, r.synced = inc, true
	f.buf = encodeLoad(f.buf[:0], f.snap, r.geom, r.top, r.left, f.snapRound)
	if !f.send(r, msgLoad, f.buf) {
		r.inc = 0
		return false
	}
	return true
}

// rollback returns to the snapshot and replays from it: the global
// grid and counters go back to the snapshot round, every rank's block
// is reloaded, and the round after the snapshot starts again.
func (f *fleetRun) rollback(cause *fleetRank, why string) {
	f.rep.Recoveries++
	if m := f.cfg.obs.Metrics; m != nil {
		m.Counter("fault.recoveries").Inc()
	}
	f.cfg.obs.Log.Event(obs.LevelWarn, "ghost", why,
		obs.Arg{Key: "rank", Value: int64(cause.id)},
		obs.Arg{Key: "round", Value: int64(f.round)},
		obs.Arg{Key: "rollback_to", Value: int64(f.snapRound)})
	f.g.CopyFrom(f.snap)
	f.committed, f.topples = f.snapRound, f.snapTopples
	for _, r := range f.ranks {
		switch {
		case r.local != nil:
			f.loadLocal(r)
		case r.inc != 0:
			f.load(r, r.inc)
		}
	}
	f.startRound()
}

// loadLocal (re)starts a lost rank's coordinator-side block from the
// snapshot.
func (f *fleetRun) loadLocal(r *fleetRank) {
	if r.local == nil {
		r.local = newBlock(r.geom, grid.New(r.localH(), r.localW()), 0)
	}
	r.copyRect(r.local.cur, f.snap, rect{0, r.localH(), 0, r.localW()}, false)
	r.local.round, r.local.synced = f.snapRound, true
	r.synced = true
}

// stepLocal runs the current round of a lost rank on the coordinator.
// Its bands come straight from the global grid, which holds the
// committed round until the round's commit.
func (f *fleetRun) stepLocal(r *fleetRank) {
	for _, bd := range r.bands {
		r.copyRect(r.local.cur, f.g, bd, false)
	}
	r.local.step(true)
	f.record(r, r.local.last)
}

// copyRect copies rect rc between the rank-local grid local and the
// global grid global, toward global when toGlobal is set.
func (r *fleetRank) copyRect(local, global *grid.Grid, rc rect, toGlobal bool) {
	for y := rc.y0; y < rc.y1; y++ {
		l := local.Row(y)[rc.x0:rc.x1]
		g := global.Row(y + r.dy)[rc.x0+r.dx : rc.x1+r.dx]
		if toGlobal {
			copy(g, l)
		} else {
			copy(l, g)
		}
	}
}

// onReport handles a msgReport. Reports from a replaced incarnation,
// for another round, or without the block a full round asked for
// (computed before a rollback) are counted and dropped.
func (f *fleetRun) onReport(r *fleetRank, ev pnet.Event) error {
	if ev.Msg.Type != msgReport {
		return nil
	}
	f.rep.Messages++
	f.rep.BytesSent += uint64(len(ev.Msg.Payload))
	if ev.Incarnation != r.inc {
		return nil
	}
	rp, err := decodeReport(ev.Msg.Payload, r.shape)
	if err != nil {
		return err
	}
	if rp.round == f.round && !r.got && (rp.full || !f.full) {
		f.record(r, rp)
	}
	return nil
}

// record accepts the rank's report for the current round.
func (f *fleetRun) record(r *fleetRank, rp report) {
	r.got, r.rpt = true, rp
	r.synced = rp.full || (rp.changes == 0 && r.synced)
	f.total += rp.changes
	f.rep.RedundantCells += rp.redundant
	// K steps per round, each over the whole owned block — the same
	// per-step accounting the in-process run reports.
	f.rep.OwnedCells += uint64(r.K * r.ownH * r.ownW)
	f.need--
}

// commit writes the complete round's reports into the global grid and
// advances the committed round; it sets done when the run is over.
func (f *fleetRun) commit() error {
	for _, r := range f.ranks {
		if r.local != nil {
			r.copyRect(r.local.cur, f.g, r.owned, true)
		} else {
			writeReport(f.g, r.rpt, r.shape, r.dy, r.dx)
		}
	}
	f.committed = f.round
	f.topples += uint64(f.total)
	f.cfg.obs.Progress.Update("ghost",
		obs.F("round", float64(f.round)),
		obs.F("changes", float64(f.total)),
		obs.F("topples", float64(f.topples)),
		obs.F("recoveries", float64(f.rep.Recoveries)))
	if f.total == 0 || f.round*f.cfg.width >= f.cfg.maxIters {
		for _, r := range f.ranks {
			if !r.synced {
				return fmt.Errorf("ghost: run ended without rank %d's whole block", r.id)
			}
		}
		f.done = true
		return nil
	}
	if f.full {
		f.snap.CopyFrom(f.g)
		f.snapRound, f.snapTopples = f.round, f.topples
	}
	if f.round == f.ckRound {
		// Due already fired when the round started.
		f.ckRound = 0
		if err := f.dur.ck.Save(uint64(f.round), f.dur.encode(f.round, f.topples)); err != nil {
			return fmt.Errorf("ghost: checkpoint: %w", err)
		}
	}
	return nil
}
