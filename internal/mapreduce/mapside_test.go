package mapreduce

import (
	"cmp"
	"fmt"
	"hash/fnv"
	"math"
	"strings"
	"testing"
)

// refPartition is HashPartitioner's reference definition: FNV-1a over
// the key's %v form. The fast paths must reproduce it exactly, or
// every partition — and so the output order — would move.
func refPartition(key any, nReduce int) int {
	h := fnv.New32a()
	fmt.Fprintf(h, "%v", key)
	return int(h.Sum32() % uint32(nReduce))
}

var partitionCounts = []int{1, 2, 7, 64, 1_000_003}

func checkPartitions[K cmp.Ordered](t *testing.T, keys ...K) {
	t.Helper()
	for _, k := range keys {
		for _, n := range partitionCounts {
			if got, want := HashPartitioner(k, n), refPartition(k, n); got != want {
				t.Errorf("HashPartitioner(%T %#v, %d) = %d, fmt reference says %d", k, k, n, got, want)
			}
		}
	}
}

// shoutKey is a defined string type whose %v form is its String
// output, not its bytes.
type shoutKey string

func (k shoutKey) String() string { return strings.ToUpper(string(k)) + "!" }

func TestHashPartitionerMatchesFmt(t *testing.T) {
	checkPartitions(t, "", "a", "a\x00b", "\x00", "\xff\xfe\xfd", "héllo wörld",
		strings.Repeat("long-key/", 300))
	checkPartitions(t, 0, -1, math.MinInt, math.MaxInt)
	checkPartitions[int8](t, 0, -1, math.MinInt8, math.MaxInt8)
	checkPartitions[int16](t, 0, -1, math.MinInt16, math.MaxInt16)
	checkPartitions[int32](t, 0, -1, math.MinInt32, math.MaxInt32)
	checkPartitions[int64](t, 0, -1, math.MinInt64, math.MaxInt64)
	// −1 wraps to max for the unsigned widths; min is 0.
	checkPartitions[uint](t, 0, math.MaxUint)
	checkPartitions[uint8](t, 0, math.MaxUint8)
	checkPartitions[uint16](t, 0, math.MaxUint16)
	checkPartitions[uint32](t, 0, math.MaxUint32)
	checkPartitions[uint64](t, 0, math.MaxUint64)
	checkPartitions[uintptr](t, 0, ^uintptr(0))
	checkPartitions(t, 0.0, math.Copysign(0, -1), 1.5, -2.25e-300, math.MaxFloat64, math.Inf(-1), math.NaN())

	checkPartitions[shoutKey](t, "", "abc", "a\x00b")
	for _, k := range []shoutKey{"abc", "hello"} {
		for _, n := range partitionCounts {
			if got, want := HashPartitioner(k, n), HashPartitioner(k.String(), n); got != want {
				t.Errorf("HashPartitioner(shoutKey %q, %d) = %d, not the partition of its String %q (%d)", k, n, got, k.String(), want)
			}
		}
	}
}

func FuzzHashPartitioner(f *testing.F) {
	f.Add("", int64(0))
	f.Add("w12345", int64(-1))
	f.Fuzz(func(t *testing.T, s string, i int64) {
		for _, n := range partitionCounts {
			if got, want := HashPartitioner(s, n), refPartition(s, n); got != want {
				t.Fatalf("HashPartitioner(%q, %d) = %d, want %d", s, n, got, want)
			}
			if got, want := HashPartitioner(i, n), refPartition(i, n); got != want {
				t.Fatalf("HashPartitioner(%d, %d) = %d, want %d", i, n, got, want)
			}
		}
	})
}

func TestHashPartitionerAllocs(t *testing.T) {
	s := strings.Repeat("key", 5) // not a constant: a real string header
	i, u := int64(-1<<40-7), uint32(1<<31+5)
	sink := 0
	if allocs := testing.AllocsPerRun(100, func() {
		sink += HashPartitioner(s, 8) + HashPartitioner(i, 8) + HashPartitioner(u, 8) + HashPartitioner(int(i), 8)
	}); allocs != 0 {
		t.Fatalf("string and int keys partition with %.1f allocations, want 0", allocs)
	}
	_ = sink
}

// TestMapSideAllocsDoNotScaleWithPairs guards the map side against
// per-pair allocation: quadrupling the pairs a job emits (same lines,
// same distinct keys, same runs) must leave allocations per Run flat.
func TestMapSideAllocsDoNotScaleWithPairs(t *testing.T) {
	words := make([]string, 50)
	for i := range words {
		words[i] = fmt.Sprintf("word%02d", i)
	}
	corpus := func(perLine int) []string {
		lines := make([]string, 2000)
		for i := range lines {
			ws := make([]string, perLine)
			for j := range ws {
				ws[j] = words[(i*7+j)%len(words)]
			}
			lines[i] = strings.Join(ws, " ")
		}
		return lines
	}
	allocs := func(lines []string) float64 {
		job := wordCountJob(Config[string]{MapTasks: 8, ReduceTasks: 4, Parallelism: 2})
		return testing.AllocsPerRun(5, func() {
			if _, _, err := job.Run(lines); err != nil {
				t.Fatal(err)
			}
		})
	}
	few, many := allocs(corpus(8)), allocs(corpus(32))
	t.Logf("allocs per Run: %.0f at 8 words per line, %.0f at 32", few, many)
	if many > few*1.05 || few > many*1.05 {
		t.Fatalf("allocs per Run moved from %.0f to %.0f when the pairs quadrupled (limit 5%%)", few, many)
	}
}
