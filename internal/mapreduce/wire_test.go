package mapreduce

import (
	"bytes"
	"context"
	"encoding/binary"
	"path/filepath"
	"runtime"
	"testing"

	"repro/internal/ckpt"
	pnet "repro/internal/net"
)

// u32s little-endian encodes a header of counts and offsets.
func u32s(vs ...uint32) []byte {
	var buf []byte
	for _, v := range vs {
		buf = binary.LittleEndian.AppendUint32(buf, v)
	}
	return buf
}

// allocated reports the bytes f allocates.
func allocated(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// badOffsetsRun is two keys whose offsets [0, 5, 1] point past the
// single value — a run that once decoded and then panicked the merge.
func badOffsetsRun() []byte {
	buf := u32s(2)
	buf = AppendString(AppendString(buf, "a"), "b")
	buf = append(buf, u32s(3, 0, 5, 1, 1)...)
	return AppendInt(buf, 1)
}

// hugeCountRun is 4 bytes claiming 2^28 keys.
func hugeCountRun() []byte { return u32s(1 << 28) }

func TestReadRunRejectsMalformedRuns(t *testing.T) {
	key := func(buf []byte, s string) []byte { return AppendString(buf, s) }
	for name, p := range map[string][]byte{
		"offsets past values":     badOffsetsRun(),
		"huge key count":          hugeCountRun(),
		"offset count mismatch":   append(key(u32s(1), "a"), u32s(1, 0, 0)...),
		"offsets without keys":    u32s(0, 2, 0, 0, 0),
		"first offset not zero":   AppendInt(append(key(u32s(1), "a"), u32s(2, 1, 1, 1)...), 7),
		"decreasing offsets":      append(key(key(u32s(2), "a"), "b"), u32s(3, 0, 2, 1, 1)...),
		"values without keys":     AppendInt(u32s(0, 0, 1), 3),
		"truncated offsets":       append(key(u32s(1), "a"), u32s(2)...),
		"huge value count":        append(key(u32s(1), "a"), u32s(2, 0, 1<<30, 1<<30)...),
		"truncated after offsets": append(key(u32s(1), "a"), u32s(2, 0, 1)...),
	} {
		t.Run(name, func(t *testing.T) {
			var err error
			n := allocated(func() { _, _, err = readRun(p, ReadString, ReadInt) })
			if err == nil {
				t.Fatal("malformed run accepted")
			}
			if n > 1<<20 {
				t.Fatalf("decoding a %d-byte run allocated %d bytes", len(p), n)
			}
		})
	}
}

// TestFleetDecodersBoundAllocations feeds the fleet's frame decoders
// tiny payloads whose counts claim 2^28 elements.
func TestFleetDecodersBoundAllocations(t *testing.T) {
	w := StringIntWire()
	for name, decode := range map[string]func() error{
		"map task records": func() error {
			_, _, _, err := decodeMapTask(u32s(0, 3, 1<<28), w)
			return err
		},
		"map task partitions": func() error {
			_, _, _, err := decodeMapTask(u32s(0, 1<<28, 0), w)
			return err
		},
		"reduce task runs": func() error {
			_, _, err := decodeReduceTask(u32s(0, 1<<28), w)
			return err
		},
		"reduce task bad run": func() error {
			_, _, err := decodeReduceTask(append(u32s(0, 1), badOffsetsRun()...), w)
			return err
		},
		"map reply partitions": func() error {
			_, _, _, err := decodeMapDone(u32s(4, 1, 1<<28), 3, w)
			return err
		},
		"reduce reply outputs": func() error {
			_, _, err := decodeReduceDone(u32s(0, 0, 0, 0, 0, 1<<28), w)
			return err
		},
	} {
		t.Run(name, func(t *testing.T) {
			var err error
			if n := allocated(func() { err = decode() }); n > 1<<20 {
				t.Fatalf("allocated %d bytes", n)
			}
			if err == nil {
				t.Fatal("malformed payload accepted")
			}
		})
	}
}

// runSeeds are encoded runs: the TestRunRoundTrip run, an empty run, a
// combiner-emptied run, the malformed regressions, and the first run
// of every spill-golden file.
func runSeeds(tb testing.TB) [][]byte {
	kvs := []KV[string, int]{{"alpha", 1}, {"alpha", 2}, {"beta", 7}, {"longerkeythanprefix", 3}}
	r := makeRun(kvs)
	seeds := [][]byte{
		appendRun(nil, &r, AppendString, AppendInt),
		appendRun(nil, &run[string, int]{}, AppendString, AppendInt),
		appendRun(nil, &run[string, int]{offs: []int32{0}}, AppendString, AppendInt),
		badOffsetsRun(),
		hugeCountRun(),
	}
	golden, _ := filepath.Glob(filepath.Join("testdata", "spill-v1", "*.ckpt"))
	for _, path := range golden {
		_, payload, err := ckpt.ReadFile(path)
		if err != nil {
			tb.Fatal(err)
		}
		seeds = append(seeds, payload[16:]) // past version, nparts, emitted
	}
	return seeds
}

func FuzzMapReduceRun(f *testing.F) {
	for _, s := range runSeeds(f) {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, p []byte) {
		r, rest, err := readRun(p, ReadString, ReadInt)
		if err != nil {
			return
		}
		if cap(r.keys) > len(p) || cap(r.vals) > len(p) || 4*len(r.offs) > len(p) {
			t.Fatalf("decoded %d/%d/%d-capacity run from %d bytes", cap(r.keys), len(r.offs), cap(r.vals), len(p))
		}
		used := p[:len(p)-len(rest)]
		again := appendRun(nil, &r, AppendString, AppendInt)
		if !bytes.Equal(again, used) {
			t.Fatalf("re-encoded run differs from its input")
		}
		back, tail, err := readRun(again, ReadString, ReadInt)
		if err != nil || len(tail) != 0 || !bytes.Equal(appendRun(nil, &back, AppendString, AppendInt), again) {
			t.Fatalf("run does not round-trip: %v", err)
		}
		// The merge indexes by the invariants readRun checks.
		if _, _, err := mergeRuns([]*run[string, int]{&r, &back}, func(string, []int, int) error { return nil }); err != nil {
			t.Fatal(err)
		}
	})
}

// taskSeeds are real fleet frames of a small word count, tagged with
// the frame kind FuzzMapReduceTask decodes them as.
func taskSeeds() (kinds []uint8, payloads [][]byte) {
	w := StringIntWire()
	job := wordCountJob(Config[string]{ReduceTasks: 3})
	parts, emitted, attempts, _ := job.runMapTask(context.Background(), 0, fleetCorpus(6), job.Config.withDefaults(), nil)
	runs := []*run[string, int]{&parts[0], &parts[1]}
	outs := []KV[string, int]{{"grain", 4}, {"pile", 2}}
	add := func(kind uint8, p []byte) {
		kinds, payloads = append(kinds, kind), append(payloads, p)
	}
	add(0, appendMapTask(0, 3, fleetCorpus(6), w))
	add(1, appendReduceTask(1, runs, w))
	add(1, append(u32s(0, 1), badOffsetsRun()...))
	add(2, appendMapDone(0, parts, emitted, attempts, w)[4:])
	add(3, appendReduceDone(2, outs, partStats{pairs: 6, groups: 2, runs: 2, passes: 1}, w)[4:])
	add(3, u32s(0, 0, 0, 0, 0, 1<<28))
	return kinds, payloads
}

// FuzzMapReduceTask drives the fleet's frame decoders: kinds 0 and 1
// run a worker's mrMap / mrReduce handling end to end, kinds 2 and 3
// decode the coordinator's mrMapDone / mrReduceDone replies.
func FuzzMapReduceTask(f *testing.F) {
	kinds, payloads := taskSeeds()
	for i := range kinds {
		f.Add(kinds[i], payloads[i])
	}
	w := StringIntWire()
	job := wordCountJob(Config[string]{})
	f.Fuzz(func(t *testing.T, kind uint8, p []byte) {
		switch kind % 4 {
		case 0:
			if _, _, recs, err := decodeMapTask(p, w); err == nil && cap(recs) > len(p) {
				t.Fatalf("%d-record capacity from %d bytes", cap(recs), len(p))
			}
			reply, err := job.serveTask(context.Background(), pnet.Msg{Type: mrMap, Payload: p}, w)
			if err != nil {
				return
			}
			nReduce := int(binary.LittleEndian.Uint32(p[4:]))
			if _, _, _, err := decodeMapDone(reply.Payload[4:], nReduce, w); err != nil {
				t.Fatalf("worker's map reply does not decode: %v", err)
			}
		case 1:
			if _, runs, err := decodeReduceTask(p, w); err == nil && cap(runs) > len(p) {
				t.Fatalf("%d-run capacity from %d bytes", cap(runs), len(p))
			}
			reply, err := job.serveTask(context.Background(), pnet.Msg{Type: mrReduce, Payload: p}, w)
			if err != nil {
				return
			}
			if _, _, err := decodeReduceDone(reply.Payload[4:], w); err != nil {
				t.Fatalf("worker's reduce reply does not decode: %v", err)
			}
		case 2:
			parts, emitted, attempts, err := decodeMapDone(p, 3, w)
			if err != nil {
				return
			}
			if again := appendMapDone(0, parts, emitted, attempts, w)[4:]; !bytes.HasPrefix(p, again) {
				t.Fatalf("re-encoded map reply differs from its input")
			}
		case 3:
			outs, ps, err := decodeReduceDone(p, w)
			if err != nil {
				return
			}
			if cap(outs) > len(p) {
				t.Fatalf("%d-output capacity from %d bytes", cap(outs), len(p))
			}
			if again := appendReduceDone(0, outs, ps, w)[4:]; !bytes.HasPrefix(p, again) {
				t.Fatalf("re-encoded reduce reply differs from its input")
			}
		}
	})
}
