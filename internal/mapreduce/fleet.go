package mapreduce

// fleet.go distributes a job over real process boundaries: map tasks
// and reduce partitions are shipped to fleet workers over internal/net
// instead of goroutines, with the shuffle's sorted runs serialized
// across the wire. The coordinator is a plain task dispatcher — a task
// is idempotent (deterministic map/reduce over deterministic input),
// so a worker SIGKILLed mid-task is handled by re-dispatching the task
// after the rejoin, and a rank that never comes back has its tasks
// reassigned to the survivors. If every worker is lost the coordinator
// inlines the remaining tasks itself: degraded, never wrong. The fleet
// is only a placement for the one job driver (driver.go): workers run
// the same map-task and reducePartition code as Job.Run, and runs cross
// the wire in the appendRun encoding Spill files use. Output is
// byte-identical to Job.Run — the fleet changes where tasks execute,
// not what they compute.

import (
	"cmp"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"slices"

	pnet "repro/internal/net"
	"repro/internal/obs"
)

// MRProto names the fleet wire protocol version.
const MRProto = "mapreduce/2"

// Fleet application frame types.
const (
	// mrMap (coordinator -> worker): one map task — task id, reduce
	// partition count, and the split's input records.
	mrMap uint8 = pnet.FrameApp + iota
	// mrMapDone (worker -> coordinator): the task's per-partition
	// sorted runs plus the raw emission and attempt counts.
	mrMapDone
	// mrReduce (coordinator -> worker): one reduce partition — its id
	// and every map task's non-empty run for it, in task order.
	mrReduce
	// mrReduceDone (worker -> coordinator): the partition's outputs
	// plus what reducing it reported (pairs, groups, retries, runs,
	// merge passes).
	mrReduceDone
	// mrStop (coordinator -> worker): the job is over; exit cleanly.
	mrStop
)

// Wire bundles the codec functions a fleet job needs to move records,
// intermediate pairs, and outputs between processes. Append functions
// extend a buffer; Read functions consume their encoding and return
// the remainder (the same inverse contract as External's codecs).
type Wire[I any, K cmp.Ordered, V, O any] struct {
	AppendIn  func([]byte, I) []byte
	ReadIn    func([]byte) (I, []byte, error)
	AppendKey func([]byte, K) []byte
	ReadKey   func([]byte) (K, []byte, error)
	AppendVal func([]byte, V) []byte
	ReadVal   func([]byte) (V, []byte, error)
	AppendOut func([]byte, O) []byte
	ReadOut   func([]byte) (O, []byte, error)
}

func (w *Wire[I, K, V, O]) readRun(buf []byte) (run[K, V], []byte, error) {
	return readRun(buf, w.ReadKey, w.ReadVal)
}

func (w *Wire[I, K, V, O]) check() error {
	if w == nil || w.AppendIn == nil || w.ReadIn == nil ||
		w.AppendKey == nil || w.ReadKey == nil ||
		w.AppendVal == nil || w.ReadVal == nil ||
		w.AppendOut == nil || w.ReadOut == nil {
		return errors.New("mapreduce: fleet wire needs all eight codec functions")
	}
	return nil
}

// StringIntWire is the ready-made wire for jobs with string records,
// string keys, int values, and KV[string, int] outputs — word count
// and friends.
func StringIntWire() *Wire[string, string, int, KV[string, int]] {
	return &Wire[string, string, int, KV[string, int]]{
		AppendIn: AppendString, ReadIn: ReadString,
		AppendKey: AppendString, ReadKey: ReadString,
		AppendVal: AppendInt, ReadVal: ReadInt,
		AppendOut: func(buf []byte, kv KV[string, int]) []byte {
			return AppendInt(AppendString(buf, kv.Key), kv.Value)
		},
		ReadOut: func(buf []byte) (KV[string, int], []byte, error) {
			k, rest, err := ReadString(buf)
			if err != nil {
				return KV[string, int]{}, rest, err
			}
			v, rest, err := ReadInt(rest)
			return KV[string, int]{k, v}, rest, err
		},
	}
}

// maxFleetReduce bounds the reduce fan-out a fleet job may ship: a
// worker sizes its partition table by the count in an mrMap frame, so
// the count must be checked before it is trusted.
const maxFleetReduce = 1 << 16

// appendMapTask encodes an mrMap payload: u32 task | u32 nReduce |
// u32 nrec | records.
func appendMapTask[I any, K cmp.Ordered, V, O any](t, nReduce int, split []I, w *Wire[I, K, V, O]) []byte {
	buf := appendU32s(nil, t, nReduce, len(split))
	for _, rec := range split {
		buf = w.AppendIn(buf, rec)
	}
	return buf
}

func decodeMapTask[I any, K cmp.Ordered, V, O any](buf []byte, w *Wire[I, K, V, O]) (t, nReduce int, records []I, err error) {
	var tt, nr, n uint32
	if buf, err = readU32s(buf, &tt, &nr, &n); err != nil {
		return 0, 0, nil, err
	}
	if nr < 1 || nr > maxFleetReduce {
		return 0, 0, nil, fmt.Errorf("mapreduce: map task asks for %d partitions", nr)
	}
	records, _, err = readSeq(buf, n, w.ReadIn)
	return int(tt), int(nr), records, err
}

// appendMapDone encodes an mrMapDone payload: u32 task | u32 emitted |
// u32 attempts | u32 nparts | runs.
func appendMapDone[I any, K cmp.Ordered, V, O any](t int, parts []run[K, V], emitted, attempts int, w *Wire[I, K, V, O]) []byte {
	buf := appendU32s(nil, t, emitted, attempts, len(parts))
	for p := range parts {
		buf = appendRun(buf, &parts[p], w.AppendKey, w.AppendVal)
	}
	return buf
}

// decodeMapDone decodes an mrMapDone payload after its task id; the
// reply must carry exactly nReduce runs.
func decodeMapDone[I any, K cmp.Ordered, V, O any](buf []byte, nReduce int, w *Wire[I, K, V, O]) (parts []run[K, V], emitted, attempts int, err error) {
	var e, a, n uint32
	if buf, err = readU32s(buf, &e, &a, &n); err != nil {
		return nil, 0, 0, err
	}
	if int(n) != nReduce {
		return nil, 0, 0, fmt.Errorf("mapreduce: map reply has %d partitions, want %d", n, nReduce)
	}
	parts, _, err = readSeq(buf, n, w.readRun)
	return parts, int(e), int(a), err
}

// appendReduceTask encodes an mrReduce payload: u32 partition |
// u32 nruns | runs.
func appendReduceTask[I any, K cmp.Ordered, V, O any](p int, runs []*run[K, V], w *Wire[I, K, V, O]) []byte {
	buf := appendU32s(nil, p, len(runs))
	for _, r := range runs {
		buf = appendRun(buf, r, w.AppendKey, w.AppendVal)
	}
	return buf
}

func decodeReduceTask[I any, K cmp.Ordered, V, O any](buf []byte, w *Wire[I, K, V, O]) (p int, runs []*run[K, V], err error) {
	var pp, n uint32
	if buf, err = readU32s(buf, &pp, &n); err != nil {
		return 0, nil, err
	}
	rs, _, err := readSeq(buf, n, w.readRun)
	for i := range rs {
		runs = append(runs, &rs[i])
	}
	return int(pp), runs, err
}

// appendReduceDone encodes an mrReduceDone payload: u32 partition |
// u32 pairs | u32 groups | u32 retries | u32 runs | u32 passes |
// u32 nout | outputs.
func appendReduceDone[I any, K cmp.Ordered, V, O any](p int, outs []O, ps partStats, w *Wire[I, K, V, O]) []byte {
	buf := appendU32s(nil, p, ps.pairs, ps.groups, ps.retries, ps.runs, ps.passes, len(outs))
	for _, o := range outs {
		buf = w.AppendOut(buf, o)
	}
	return buf
}

// decodeReduceDone decodes an mrReduceDone payload after its partition
// id.
func decodeReduceDone[I any, K cmp.Ordered, V, O any](buf []byte, w *Wire[I, K, V, O]) (outs []O, ps partStats, err error) {
	var f [6]uint32
	if buf, err = readU32s(buf, &f[0], &f[1], &f[2], &f[3], &f[4], &f[5]); err != nil {
		return nil, ps, err
	}
	outs, _, err = readSeq(buf, f[5], w.ReadOut)
	return outs, partStats{int(f[0]), int(f[1]), int(f[2]), int(f[3]), int(f[4])}, err
}

// FleetWorker joins the fleet at cfg.Join and executes map and reduce
// tasks until the coordinator sends stop. The worker process must
// construct the same Job (same Map/Combine/Reduce and Partitioner) the
// coordinator runs — only data crosses the wire, never code.
func (j *Job[I, K, V, O]) FleetWorker(ctx context.Context, cfg pnet.WorkerConfig, w *Wire[I, K, V, O]) error {
	if err := w.check(); err != nil {
		return err
	}
	if cfg.Proto == "" {
		cfg.Proto = MRProto
	}
	return pnet.RunWorker(ctx, cfg, func(m pnet.Msg, send func(pnet.Msg) error) error {
		if m.Type == mrStop {
			return pnet.ErrWorkerDone
		}
		reply, err := j.serveTask(ctx, m, w)
		if err != nil {
			return err
		}
		return send(reply)
	})
}

// serveTask executes one mrMap or mrReduce frame with the same map-task
// and reducePartition code an in-process run uses, and returns the
// reply frame.
func (j *Job[I, K, V, O]) serveTask(ctx context.Context, m pnet.Msg, w *Wire[I, K, V, O]) (pnet.Msg, error) {
	cfg := j.Config.withDefaults()
	switch m.Type {
	case mrMap:
		t, nReduce, records, err := decodeMapTask(m.Payload, w)
		if err != nil {
			return pnet.Msg{}, err
		}
		cfg.ReduceTasks = nReduce
		parts, emitted, attempts, err := j.runMapTask(ctx, t, records, cfg, nil)
		if err != nil {
			return pnet.Msg{}, err
		}
		return pnet.Msg{Type: mrMapDone, Payload: appendMapDone(t, parts, emitted, attempts, w)}, nil
	case mrReduce:
		p, runs, err := decodeReduceTask(m.Payload, w)
		if err != nil {
			return pnet.Msg{}, err
		}
		outs, ps, err := j.reducePartition(ctx, cfg, nil, p, memMerge(runs))
		if err != nil {
			return pnet.Msg{}, err
		}
		return pnet.Msg{Type: mrReduceDone, Payload: appendReduceDone(p, outs, ps, w)}, nil
	default:
		return pnet.Msg{}, fmt.Errorf("mapreduce: unexpected frame type %d", m.Type)
	}
}

// fleetPhase dispatches tasks [0, n) across the fleet: every idle
// worker gets a task, a dead worker's task goes back to the pending
// pool (re-dispatched to whoever is free — the deterministic task
// makes duplicate execution harmless, and completion is recorded only
// once), and when every rank is lost the coordinator inlines the rest.
// retries counts re-dispatches caused by deaths.
func fleetPhase(ctx context.Context, co *pnet.Coordinator, workers int, n int,
	mkMsg func(task int) pnet.Msg,
	done func(task int, payload []byte) error,
	inline func(task int) error,
	doneType uint8, lost []bool, sink obs.Sink) (retries int, err error) {

	if n == 0 {
		return 0, nil
	}
	pending := make([]int, n)
	for i := range pending {
		pending[i] = n - 1 - i // pop order = task order
	}
	assigned := make([]int, workers) // rank -> task, -1 = idle
	for i := range assigned {
		assigned[i] = -1
	}
	completed := make([]bool, n)
	remaining := n

	assign := func(rank int) {
		if lost[rank] || assigned[rank] >= 0 {
			return
		}
		for len(pending) > 0 {
			t := pending[len(pending)-1]
			pending = pending[:len(pending)-1]
			if completed[t] {
				continue
			}
			if co.Send(rank, mkMsg(t)) == nil {
				assigned[rank] = t
			} else {
				pending = append(pending, t)
			}
			return
		}
	}
	release := func(rank int) {
		if t := assigned[rank]; t >= 0 {
			assigned[rank] = -1
			if !completed[t] {
				pending = append(pending, t)
				retries++
			}
		}
	}

	for r := 0; r < workers; r++ {
		assign(r)
	}
	for remaining > 0 {
		if !slices.Contains(lost, false) {
			sink.Log.Event(obs.LevelError, "mapreduce", "all fleet workers lost; finishing inline",
				obs.Arg{Key: "remaining", Value: int64(remaining)})
			for t := range n {
				if !completed[t] {
					if err := inline(t); err != nil {
						return retries, err
					}
				}
			}
			return retries, nil
		}
		select {
		case <-ctx.Done():
			return retries, ctx.Err()
		case ev, ok := <-co.Events():
			if !ok {
				return retries, errors.New("mapreduce: fleet coordinator closed")
			}
			switch ev.Kind {
			case pnet.PeerJoined:
				// A rejoining rank lost its in-flight task with its
				// process; hand it (or the next pending one) out again.
				release(ev.Rank)
				assign(ev.Rank)
			case pnet.PeerDead, pnet.PeerLost:
				if ev.Kind == pnet.PeerLost {
					lost[ev.Rank] = true
				} else {
					sink.Log.Event(obs.LevelWarn, "mapreduce", "fleet worker died",
						obs.Arg{Key: "rank", Value: int64(ev.Rank)})
				}
				release(ev.Rank)
				// Reassign to an idle survivor right away rather than
				// waiting for the respawn.
				for r := range workers {
					assign(r)
				}
			case pnet.PeerMsg:
				if ev.Msg.Type != doneType || len(ev.Msg.Payload) < 4 {
					continue
				}
				t := int(binary.LittleEndian.Uint32(ev.Msg.Payload))
				if t < 0 || t >= n {
					return retries, fmt.Errorf("mapreduce: fleet done for unknown task %d", t)
				}
				if assigned[ev.Rank] == t {
					assigned[ev.Rank] = -1
				}
				if completed[t] {
					assign(ev.Rank) // duplicate after a re-dispatch race
					continue
				}
				if err := done(t, ev.Msg.Payload[4:]); err != nil {
					return retries, err
				}
				completed[t] = true
				remaining--
				assign(ev.Rank)
			}
		}
	}
	return retries, nil
}

// RunFleet executes the job over a worker fleet and returns outputs in
// the same deterministic order as Run: reduce partitions in index
// order, keys ascending within each. Spill, External, ReferenceShuffle
// and fault injection are single-process features and are rejected
// here; fleet crashes are real worker deaths.
func (j *Job[I, K, V, O]) RunFleet(ctx context.Context, inputs []I, fc *pnet.FleetConfig, w *Wire[I, K, V, O]) ([]O, Stats, error) {
	if err := w.check(); err != nil {
		return nil, Stats{}, err
	}
	if j.Map == nil || j.Reduce == nil {
		return nil, Stats{}, errNoPhases
	}
	if j.Config.Faults != nil || j.Spill != nil || j.Config.MaxShuffleBytes > 0 || j.Config.ReferenceShuffle {
		return nil, Stats{}, errors.New("mapreduce: fleet mode excludes Faults/Spill/External/ReferenceShuffle")
	}
	if j.Config.ReduceTasks > maxFleetReduce {
		return nil, Stats{}, fmt.Errorf("mapreduce: fleet mode takes at most %d reduce tasks", maxFleetReduce)
	}
	conf := *fc
	conf.Proto = MRProto
	if !conf.Obs.Enabled() {
		conf.Obs = j.Config.Obs
	}
	co, err := pnet.NewCoordinator(conf)
	if err != nil {
		return nil, Stats{}, err
	}
	defer co.Close()
	lost := make([]bool, conf.Workers)

	// fleetPhase is the remote scheduler; the driver's local task is
	// its inline fallback once every worker is lost.
	dispatch := func(ctx context.Context, r *jobRun[I, K, V, O], reduce bool, n int, local func(int) error) (int, error) {
		if !reduce {
			return fleetPhase(ctx, co, conf.Workers, n,
				func(t int) pnet.Msg {
					return pnet.Msg{Type: mrMap, Payload: appendMapTask(t, r.cfg.ReduceTasks, r.splits[t], w)}
				},
				func(t int, payload []byte) error {
					parts, emitted, attempts, err := decodeMapDone(payload, r.cfg.ReduceTasks, w)
					if err != nil {
						return err
					}
					return r.mapDone(t, parts, emitted, attempts, false)
				},
				local, mrMapDone, lost, r.cfg.Obs)
		}
		return fleetPhase(ctx, co, conf.Workers, n,
			func(p int) pnet.Msg {
				return pnet.Msg{Type: mrReduce, Payload: appendReduceTask(p, r.partRuns(p), w)}
			},
			func(p int, payload []byte) error {
				outs, ps, err := decodeReduceDone(payload, w)
				if err != nil {
					return err
				}
				r.reduceDone(p, outs, ps)
				return nil
			},
			local, mrReduceDone, lost, r.cfg.Obs)
	}
	out, stats, err := j.runJob(ctx, inputs, nil, dispatch)
	if err != nil {
		return nil, stats, err
	}
	for r := 0; r < conf.Workers; r++ {
		co.Send(r, pnet.Msg{Type: mrStop}) // best effort
	}
	return out, stats, nil
}
