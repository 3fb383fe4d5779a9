package mapreduce

// naive.go retains the pre-sorted-run shuffle — a serial per-partition
// hash-group (map[K]int index) followed by a post-hoc sort.Slice —
// behind Config.ReferenceShuffle. It is the oracle the randomized
// equivalence test diffs the merge pipeline against, and the baseline
// the BenchmarkWordCount1M*Naive benchmarks measure the speedup over.
// It produces byte-identical outputs (its grouping is insensitive to
// the map side now handing it sorted runs) but pays the costs the
// sorted-run pipeline was built to remove: one goroutine doing every
// partition's grouping, a hash-map index per partition, a materialized
// group table, and a full re-sort of keys the runs already had in
// order. Only the grouping differs: the groups are reduced by the same
// reducePartition step as the merge pipeline's.

import (
	"cmp"
	"sort"
)

// naiveShuffle groups every partition's map output up front and
// returns, per partition, a merge that replays the sorted groups.
// ShuffleRuns and MergePasses stay 0: nothing is merged.
func naiveShuffle[K cmp.Ordered, V any](mapOut [][]run[K, V], nReduce int) []mergeFunc[K, V] {
	type group struct {
		key    K
		values []V
	}
	merges := make([]mergeFunc[K, V], nReduce)
	for p := range merges {
		idx := map[K]int{}
		var groups []group
		pairs := 0
		for t := range mapOut {
			r := &mapOut[t][p]
			for si, key := range r.keys {
				g, ok := idx[key]
				if !ok {
					g = len(groups)
					idx[key] = g
					groups = append(groups, group{key: key})
				}
				span := r.vals[r.offs[si]:r.offs[si+1]]
				groups[g].values = append(groups[g].values, span...)
				pairs += len(span)
			}
		}
		sort.Slice(groups, func(a, b int) bool { return groups[a].key < groups[b].key })
		merges[p] = func(emit func(K, []V, int) error) (partStats, error) {
			for gi, g := range groups {
				if err := emit(g.key, g.values, gi); err != nil {
					return partStats{pairs: pairs, groups: gi + 1}, err
				}
			}
			return partStats{pairs: pairs, groups: len(groups)}, nil
		}
	}
	return merges
}
