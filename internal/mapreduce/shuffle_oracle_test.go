package mapreduce

import (
	"cmp"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"repro/internal/fault"
)

// The shuffle-equivalence oracle: the sorted-run merge pipeline must
// be observationally identical to the retained naive hash-group
// shuffle (Config.ReferenceShuffle) — same outputs byte for byte,
// same Stats, same errors — across random jobs varying key skew,
// task counts, combiner use, and injected task faults. The reducer
// prints the full values slice, so any value-reordering bug in the
// merge's stability shows up in the diff, not just miscounts.

// oracleJob maps each input record to 1-3 (key, value) pairs. Keys are
// drawn from a vocabulary with optional skew (a few hot keys absorb
// most records); values carry the record index so value order is
// observable in the output.
func oracleJob(vocab, hot int, combine bool, cfg Config[string]) *Job[int, string, int, string] {
	keyFor := func(r, i int) string {
		h := (r*2654435761 + i*40503) & 0x7fffffff
		if hot > 0 && h%100 < 80 { // 80% of pairs land on `hot` keys
			return fmt.Sprintf("hot-%d", h%hot)
		}
		return fmt.Sprintf("w-%d", h%vocab)
	}
	j := &Job[int, string, int, string]{
		Name:   "oracle",
		Config: cfg,
		Map: func(r int, emit func(string, int)) error {
			n := 1 + r%3
			for i := 0; i < n; i++ {
				emit(keyFor(r, i), r)
			}
			return nil
		},
		Reduce: func(key string, values []int, emit func(string)) error {
			emit(fmt.Sprintf("%s=%v", key, values))
			return nil
		},
	}
	if combine {
		// Emits two values per span (sum and count), exercising
		// combiners that expand as well as shrink a group.
		j.Combine = func(key string, values []int) ([]int, error) {
			sum := 0
			for _, v := range values {
				sum += v
			}
			return []int{sum, len(values)}, nil
		}
	}
	return j
}

func TestShuffleOracleRandomizedEquivalence(t *testing.T) {
	defer func(old int) { scanMaxRuns = old }(scanMaxRuns)
	rng := rand.New(rand.NewSource(1938))
	for trial := 0; trial < 60; trial++ {
		scanMaxRuns = 64
		if trial%3 == 0 {
			scanMaxRuns = 1 // drive the heap path through whole jobs too
		}
		records := rng.Intn(400)
		inputs := make([]int, records)
		for i := range inputs {
			inputs[i] = rng.Intn(1 << 20)
		}
		vocab := 1 + rng.Intn(200)
		hot := 0
		if rng.Intn(2) == 1 { // high-skew half of the trials
			hot = 1 + rng.Intn(3)
		}
		combine := rng.Intn(2) == 1
		cfg := Config[string]{
			MapTasks:    rng.Intn(10),
			ReduceTasks: 1 + rng.Intn(8),
			Parallelism: 1 + rng.Intn(4),
		}
		if rng.Intn(2) == 1 { // fault-injected half of the trials
			cfg.Faults = &fault.Plan{Seed: int64(trial), TaskFail: 0.2}
			cfg.MaxAttempts = 10
		}

		desc := fmt.Sprintf("trial %d (records=%d vocab=%d hot=%d combine=%v cfg=%+v)",
			trial, records, vocab, hot, combine, cfg)

		merged, mStats, mErr := oracleJob(vocab, hot, combine, cfg).Run(inputs)
		refCfg := cfg
		refCfg.ReferenceShuffle = true
		naive, nStats, nErr := oracleJob(vocab, hot, combine, refCfg).Run(inputs)

		if (mErr == nil) != (nErr == nil) {
			t.Fatalf("%s: error mismatch: merge=%v naive=%v", desc, mErr, nErr)
		}
		if mErr != nil {
			continue // both failed identically (deterministic injection)
		}
		if !reflect.DeepEqual(merged, naive) {
			for i := range merged {
				if i >= len(naive) || merged[i] != naive[i] {
					t.Fatalf("%s: outputs diverge at %d:\n merge: %q\n naive: %q", desc, i, merged[i], naive[i])
				}
			}
			t.Fatalf("%s: output lengths diverge: merge=%d naive=%d", desc, len(merged), len(naive))
		}
		// The merge-only accounting fields have no naive counterpart;
		// everything else must agree exactly, retries included.
		mStats.ShuffleRuns, mStats.MergePasses = 0, 0
		if mStats != nStats {
			t.Fatalf("%s: stats diverge:\n merge: %+v\n naive: %+v", desc, mStats, nStats)
		}
	}
}

// makeRun builds a span-compressed run from raw (unsorted) pairs
// through the map side's own builder: one partition, record sort,
// span compression.
func makeRun[K cmp.Ordered, V any](pairs []KV[K, V]) run[K, V] {
	parts, err := partitionRuns(&mapBuf[K, V]{pairs: pairs}, Config[K]{ReduceTasks: 1, Partitioner: HashPartitioner[K]}, nil)
	if err != nil {
		panic(err)
	}
	return parts[0]
}

// The oracle above runs jobs end to end; this pins the merge itself
// against a trivial per-partition reference (concatenate runs in task
// order, group with a hash map, sort keys) over adversarial run
// shapes: empty runs, single-run partitions, all-equal keys. Both
// merge shapes are driven: the head-scanning path (default) and the
// heap path (scanMaxRuns forced to 1).
func TestMergeRunsMatchesReferenceGrouping(t *testing.T) {
	defer func(old int) { scanMaxRuns = old }(scanMaxRuns)
	for _, scanMaxRuns = range []int{64, 1} {
		t.Run(fmt.Sprintf("scanMaxRuns=%d", scanMaxRuns), testMergeRunsMatchesReferenceGrouping)
	}
}

func testMergeRunsMatchesReferenceGrouping(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 200; trial++ {
		nRuns := rng.Intn(6)
		var flat [][]KV[int, int]
		runs := make([]*run[int, int], 0, nRuns)
		type ref struct{ vals []int }
		want := map[int]*ref{}
		var keys []int
		next := 0
		for r := 0; r < nRuns; r++ {
			n := rng.Intn(20)
			pairs := make([]KV[int, int], n)
			for i := range pairs {
				pairs[i] = KV[int, int]{Key: rng.Intn(5), Value: next}
				next++
			}
			sr := makeRun(pairs)
			flat = append(flat, pairs)
			runs = append(runs, &sr)
		}
		for _, pairs := range flat { // reference: task order, then key-sorted emission order
			byKey := map[int][]int{}
			for _, kv := range pairs {
				byKey[kv.Key] = append(byKey[kv.Key], kv.Value)
			}
			for k := 0; k < 5; k++ {
				if vs, ok := byKey[k]; ok {
					if want[k] == nil {
						want[k] = &ref{}
						keys = append(keys, k)
					}
					want[k].vals = append(want[k].vals, vs...)
				}
			}
		}

		var gotKeys []int
		pairs, groups, err := mergeRuns(runs, func(key int, values []int, gi int) error {
			if gi != len(gotKeys) {
				t.Fatalf("trial %d: gi = %d, want %d", trial, gi, len(gotKeys))
			}
			if len(gotKeys) > 0 && key <= gotKeys[len(gotKeys)-1] {
				t.Fatalf("trial %d: keys not strictly ascending: %d after %d", trial, key, gotKeys[len(gotKeys)-1])
			}
			gotKeys = append(gotKeys, key)
			if !reflect.DeepEqual(values, want[key].vals) {
				t.Fatalf("trial %d key %d: values = %v, want %v", trial, key, values, want[key].vals)
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if groups != len(keys) || len(gotKeys) != len(keys) {
			t.Fatalf("trial %d: %d groups, want %d", trial, groups, len(keys))
		}
		total := 0
		for _, r := range runs {
			total += r.pairs()
		}
		if pairs != total {
			t.Fatalf("trial %d: %d pairs consumed, want %d", trial, pairs, total)
		}
	}
}

// adversarialKeys stresses every corner of the string prefix encoding:
// empty and NUL-bearing keys, prefix-of pairs straddling the 7-byte
// boundary, and 8+ byte keys sharing their first 7 bytes (the 0xFF
// saturation marker, where prefix ties must fall back to real
// comparisons).
var adversarialKeys = []string{
	"", "\x00", "\x00\x00", "a", "ab", "ab\x00", "ab\x00c", "abc",
	"abcdef", "abcdefg", "abcdefg\x00", "abcdefgh", "abcdefgh\x00",
	"abcdefghi", "abcdefgZ", "abcdefg0", "abcdefg00", "abcdefzzzzzz",
	"zzzzzzzz", "\xff\xff\xff\xff\xff\xff\xff\xff\xff", "\xff", "é", "éé",
}

// TestKeyPrefixContract checks the two properties every comparison in
// the pipeline relies on: a prefix difference decides the order, and
// an exact prefix tie proves key equality.
func TestKeyPrefixContract(t *testing.T) {
	class := prefixClass[string]()
	for _, a := range adversarialKeys {
		for _, b := range adversarialKeys {
			pa, pb := keyPrefix(a), keyPrefix(b)
			if (pa < pb && a >= b) || (pa > pb && a <= b) {
				t.Errorf("prefix misorders %q (%#x) vs %q (%#x)", a, pa, b, pb)
			}
			if pa == pb && prefProvesEqual(class, pa) && a != b {
				t.Errorf("exact prefix tie %#x on distinct keys %q vs %q", pa, a, b)
			}
		}
	}
	for _, k := range []int{-1 << 62, -2, -1, 0, 1, 2, 1 << 62} {
		for _, l := range []int{-1 << 62, -2, -1, 0, 1, 2, 1 << 62} {
			if cmpPref, cmpKey := cmp.Compare(keyPrefix(k), keyPrefix(l)), cmp.Compare(k, l); cmpPref != cmpKey {
				t.Errorf("int prefix misorders %d vs %d", k, l)
			}
		}
	}
}

// TestMergeRunsAdversarialStringKeys merges runs drawn from the
// adversarial key set — where prefix ties on distinct keys actually
// occur — against the same reference grouping, on both merge paths.
func TestMergeRunsAdversarialStringKeys(t *testing.T) {
	defer func(old int) { scanMaxRuns = old }(scanMaxRuns)
	for _, scanMaxRuns = range []int{64, 1} {
		rng := rand.New(rand.NewSource(11))
		for trial := 0; trial < 100; trial++ {
			nRuns := 1 + rng.Intn(6)
			var flat [][]KV[string, int]
			runs := make([]*run[string, int], 0, nRuns)
			next := 0
			for r := 0; r < nRuns; r++ {
				n := rng.Intn(30)
				pairs := make([]KV[string, int], n)
				for i := range pairs {
					pairs[i] = KV[string, int]{Key: adversarialKeys[rng.Intn(len(adversarialKeys))], Value: next}
					next++
				}
				sr := makeRun(pairs)
				flat = append(flat, pairs)
				runs = append(runs, &sr)
			}
			want := map[string][]int{}
			var keys []string
			for _, pairs := range flat {
				byKey := map[string][]int{}
				for _, kv := range pairs {
					byKey[kv.Key] = append(byKey[kv.Key], kv.Value)
				}
				for _, k := range adversarialKeys {
					if vs, ok := byKey[k]; ok {
						if _, seen := want[k]; !seen {
							keys = append(keys, k)
						}
						want[k] = append(want[k], vs...)
					}
				}
			}
			slices.Sort(keys)

			gi := 0
			_, groups, err := mergeRuns(runs, func(key string, values []int, g int) error {
				if g != gi || gi >= len(keys) || key != keys[gi] {
					t.Fatalf("trial %d group %d: key %q, want %q", trial, g, key, keys[min(gi, len(keys)-1)])
				}
				if !reflect.DeepEqual(values, want[key]) {
					t.Fatalf("trial %d key %q: values = %v, want %v", trial, key, values, want[key])
				}
				gi++
				return nil
			})
			if err != nil || groups != len(keys) {
				t.Fatalf("trial %d: groups=%d err=%v, want %d groups", trial, groups, err, len(keys))
			}
		}
	}
}
