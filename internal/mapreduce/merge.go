package mapreduce

// merge.go is the shuffle's data plane: sorted, span-compressed runs
// and the k-way merge over them. Each map task hands the reduce phase
// one run per partition (sorted at map-task granularity, inside the
// already-parallel map phase, combiner applied during span building),
// and the shuffle merges a partition's runs in a single streaming
// pass that feeds equal keys directly into the reducer. Nothing is
// re-grouped through a hash map and nothing is globally re-sorted —
// the per-run sort plus a stable merge is the whole shuffle, exactly
// Hadoop's sort-merge design.
//
// Two representation choices carry the performance:
//
//   - Runs are span-compressed: distinct ascending keys, each owning a
//     contiguous slice of a shared values array. The merge moves one
//     span (a bulk append) per step instead of touching every pair, so
//     per-pair work — and the cache miss of chasing every key's string
//     bytes — drops out of the shuffle entirely.
//   - Every key carries an 8-byte order-preserving prefix. For short
//     strings and all integer widths the prefix is EXACT: prefix
//     equality proves key equality, so both the map-side sort and the
//     merge run on nothing but the uint64 prefixes — no string bytes
//     are touched at all unless keys are 8+ characters and share their
//     first 7.
//
// The map side allocates nothing per pair. A map attempt appends its
// pairs to a pooled buffer (mapBuf); partitionRuns makes one counting
// pass by partition into a single flat slice of pointer-free
// {prefix, emission index} records (sortRec), radix-sorts each
// partition's segment on the prefix (sortRecs; a comparison sort only
// for inexact prefixes and saturated string ties), and buildRun
// gathers keys and values through the indices into the run. Sorting
// 16-byte records with no pointers moves no key bytes and pays no GC
// write barriers.
//
// The merge itself comes in two shapes. For small fan-in (the common
// case: one run per map task) a linear scan of the cursor heads finds
// each group — k inline integer compares beat a heap's O(log k)
// generic-function comparisons by a wide margin on modern cores. A
// binary min-heap of cursors takes over past scanMaxRuns, restoring
// O(log k) per step for very wide merges.
//
// Stability argument (why outputs are byte-identical to the old
// hash-group shuffle): within a run, equal keys keep emission order
// because the map-side sort breaks key ties by emission sequence;
// across runs, the merge drains a key's spans in task-index order, so
// a group's values appear in (map-task, emission) order — the same
// order the old shuffle produced by concatenating task outputs before
// grouping.

import (
	"cmp"
	"encoding/binary"
	"errors"
	"fmt"
	"slices"
	"sync"
)

// Prefix exactness classes: what a prefix tie proves about the keys.
const (
	// prefExactTotal: the prefix is a bijective order-embedding, so
	// prefix equality alone proves key equality (all integer widths).
	prefExactTotal = iota
	// prefExactMarked: prefix equality proves key equality unless the
	// prefix's low byte is the 0xFF saturation marker (strings — see
	// keyPrefix for the 7-bytes-plus-length encoding).
	prefExactMarked
	// prefInexact: prefix ties prove nothing; always fall back to
	// comparing keys (floats, defined types).
	prefInexact
)

// prefixClass reports the exactness class of keyPrefix for K.
func prefixClass[K cmp.Ordered]() int {
	var z K
	switch any(z).(type) {
	case int, int8, int16, int32, int64, uint, uint8, uint16, uint32, uint64, uintptr:
		return prefExactTotal
	case string:
		return prefExactMarked
	default:
		return prefInexact
	}
}

// prefProvesEqual reports whether, for K's class, equality of this
// prefix value alone proves the underlying keys are equal.
func prefProvesEqual(class int, pref uint64) bool {
	return class == prefExactTotal || (class == prefExactMarked && pref&0xFF != 0xFF)
}

// keyPrefix returns an order-preserving 8-byte accelerator for k:
// keyPrefix(a) < keyPrefix(b) implies a < b, and a < b implies
// keyPrefix(a) <= keyPrefix(b), so comparisons may trust a prefix
// difference and only fall back to cmp.Compare on prefix ties.
//
// Integers embed bijectively (sign bit flipped so the unsigned order
// matches the signed one), making every prefix exact. Strings pack
// their first 7 bytes big-endian into the top 56 bits and the length
// into the low byte — 0..7 for short strings, 0xFF saturated for 8+.
// The length byte both orders prefix-of relationships correctly
// (including keys with embedded NULs: "ab" < "ab\x00") and marks short
// strings' prefixes as exact, so a prefix tie between them proves the
// keys equal and no byte comparison is ever needed. Types without a
// cheap order-preserving embedding (floats) return 0 and always fall
// back.
func keyPrefix[K cmp.Ordered](k K) uint64 {
	const signFlip = 1 << 63
	switch v := any(k).(type) {
	case string:
		p := uint64(0xFF)
		if len(v) < 8 {
			p = uint64(len(v))
		}
		for i := 0; i < len(v) && i < 7; i++ {
			p |= uint64(v[i]) << (56 - 8*i)
		}
		return p
	case int:
		return uint64(v) ^ signFlip
	case int8:
		return uint64(v) ^ signFlip
	case int16:
		return uint64(v) ^ signFlip
	case int32:
		return uint64(v) ^ signFlip
	case int64:
		return uint64(v) ^ signFlip
	case uint:
		return uint64(v)
	case uint8:
		return uint64(v)
	case uint16:
		return uint64(v)
	case uint32:
		return uint64(v)
	case uint64:
		return v
	case uintptr:
		return uint64(v)
	default:
		return 0
	}
}

// run is one map task's sorted, span-compressed output for one reduce
// partition: keys holds the task's distinct keys in ascending order,
// vals[offs[i]:offs[i+1]] holds keys[i]'s values in emission order,
// and prefs[i] is keys[i]'s comparison accelerator.
type run[K cmp.Ordered, V any] struct {
	keys  []K
	prefs []uint64
	offs  []int32 // len(keys)+1 span boundaries into vals
	vals  []V
}

func (r *run[K, V]) pairs() int { return len(r.vals) }

// appendRun serializes one run — the one run codec, shared by Spill
// files and the fleet wire:
//
//	u32 nkeys | keys | u32 noffs | offs (u32 each) | u32 nvals | vals
//
// Prefixes are not stored: they are a pure function of the keys and
// readRun recomputes them, keeping the format independent of the
// accelerator encoding.
func appendRun[K cmp.Ordered, V any](buf []byte, r *run[K, V], appendKey func([]byte, K) []byte, appendVal func([]byte, V) []byte) []byte {
	buf = appendU32s(buf, len(r.keys))
	for _, k := range r.keys {
		buf = appendKey(buf, k)
	}
	buf = appendU32s(buf, len(r.offs))
	for _, off := range r.offs {
		buf = appendU32s(buf, int(off))
	}
	buf = appendU32s(buf, len(r.vals))
	for _, v := range r.vals {
		buf = appendVal(buf, v)
	}
	return buf
}

var errTruncated = errors.New("mapreduce: truncated payload")

// appendU32s appends each value as a little-endian u32.
func appendU32s(buf []byte, vs ...int) []byte {
	for _, v := range vs {
		buf = binary.LittleEndian.AppendUint32(buf, uint32(v))
	}
	return buf
}

// readU32s consumes one little-endian u32 into each of dst.
func readU32s(buf []byte, dst ...*uint32) ([]byte, error) {
	if len(buf) < 4*len(dst) {
		return buf, errTruncated
	}
	for i, d := range dst {
		*d = binary.LittleEndian.Uint32(buf[4*i:])
	}
	return buf[4*len(dst):], nil
}

func readOff(buf []byte) (int32, []byte, error) {
	var v uint32
	buf, err := readU32s(buf, &v)
	return int32(v), buf, err
}

// readSeq decodes n elements with read. n comes from a peer or a disk,
// so the preallocation is capped by the bytes left to decode from: a
// count alone never sizes an allocation.
func readSeq[T any](buf []byte, n uint32, read func([]byte) (T, []byte, error)) ([]T, []byte, error) {
	out := make([]T, 0, min(uint64(n), uint64(len(buf))))
	for range n {
		v, rest, err := read(buf)
		if err != nil {
			return nil, rest, err
		}
		out, buf = append(out, v), rest
	}
	return out, buf, nil
}

// readRun decodes one appendRun encoding and returns the rest of buf.
// The counts are untrusted, so the invariants the merge indexes by are
// checked: noffs is nkeys+1 (at most 1 without keys), and offsets start
// at 0, never decrease and end at nvals.
func readRun[K cmp.Ordered, V any](buf []byte, readKey func([]byte) (K, []byte, error), readVal func([]byte) (V, []byte, error)) (r run[K, V], rest []byte, err error) {
	var nk, no, nv uint32
	if buf, err = readU32s(buf, &nk); err != nil {
		return r, buf, err
	}
	if r.keys, buf, err = readSeq(buf, nk, readKey); err != nil {
		return r, buf, err
	}
	if buf, err = readU32s(buf, &no); err != nil {
		return r, buf, err
	}
	if (nk > 0 && uint64(no) != uint64(nk)+1) || (nk == 0 && no > 1) {
		return r, buf, fmt.Errorf("mapreduce: run has %d offsets for %d keys", no, nk)
	}
	if r.offs, buf, err = readSeq(buf, no, readOff); err != nil {
		return r, buf, err
	}
	last := int32(0)
	for i, off := range r.offs {
		if off < last || (i == 0 && off != 0) {
			return r, buf, fmt.Errorf("mapreduce: run offset %d is %d after %d", i, off, last)
		}
		last = off
	}
	if buf, err = readU32s(buf, &nv); err != nil {
		return r, buf, err
	}
	if int64(nv) != int64(last) {
		return r, buf, fmt.Errorf("mapreduce: run offsets end at %d, run has %d values", last, nv)
	}
	if r.vals, buf, err = readSeq(buf, nv, readVal); err != nil {
		return r, buf, err
	}
	r.prefs = make([]uint64, len(r.keys))
	for i, k := range r.keys {
		r.prefs[i] = keyPrefix(k)
	}
	return r, buf, nil
}

// sortRec is the map side's pointer-free sort record: a pair's key
// prefix and its emission index into the map task's pair buffer (the
// stable-sort tie-break, so an unstable — and faster — sort yields a
// stable order). Sorting 16-byte records with no pointers moves no key
// or value bytes and pays no GC write barriers; keys and values are
// gathered through idx only once, when the run is built.
type sortRec struct {
	pref uint64
	idx  uint32
}

// recCmp returns the map-side sort order for records over pairs:
// (prefix, key, emission index) — never 0 for distinct records, which
// is what makes the unstable sort stable. The key compare is skipped
// entirely when the prefix tie already proves the keys equal.
func recCmp[K cmp.Ordered, V any](pairs []KV[K, V]) func(a, b sortRec) int {
	class := prefixClass[K]()
	return func(a, b sortRec) int {
		if a.pref != b.pref {
			if a.pref < b.pref {
				return -1
			}
			return 1
		}
		if !prefProvesEqual(class, a.pref) {
			if c := cmp.Compare(pairs[a.idx].Key, pairs[b.idx].Key); c != 0 {
				return c
			}
		}
		return cmp.Compare(a.idx, b.idx)
	}
}

// sortRecs sorts one partition's records into recCmp order and returns
// the sorted slice, which is seg or tmp (scratch of len(seg)). The
// records arrive in emission-index order, so when the prefix is exact
// a stable LSD radix sort on the prefix alone yields exactly (prefix,
// index) order: one counting pass builds all eight byte histograms, and
// a byte every record shares costs no pass at all. String prefixes
// saturated by keys of 8+ bytes then tie-break their runs by key.
// Types with an inexact prefix fall back to a comparison sort.
func sortRecs[K cmp.Ordered, V any](seg, tmp []sortRec, pairs []KV[K, V]) []sortRec {
	class := prefixClass[K]()
	if len(seg) < 2 {
		return seg
	}
	if class == prefInexact {
		slices.SortFunc(seg, recCmp(pairs))
		return seg
	}
	var counts [8][256]uint32
	for _, r := range seg {
		for d := range counts {
			counts[d][byte(r.pref>>(8*d))]++
		}
	}
	for d := range counts {
		c := &counts[d]
		if c[byte(seg[0].pref>>(8*d))] == uint32(len(seg)) {
			continue
		}
		sum := uint32(0)
		for b, n := range c {
			c[b], sum = sum, sum+n
		}
		for _, r := range seg {
			b := byte(r.pref >> (8 * d))
			tmp[c[b]] = r
			c[b]++
		}
		seg, tmp = tmp, seg
	}
	if class == prefExactMarked {
		cmpRecs := recCmp(pairs)
		for i := 0; i < len(seg); {
			j := i + 1
			for j < len(seg) && seg[j].pref == seg[i].pref {
				j++
			}
			if j-i > 1 && !prefProvesEqual(class, seg[i].pref) {
				slices.SortFunc(seg[i:j], cmpRecs)
			}
			i = j
		}
	}
	return seg
}

// buildRun span-compresses one partition's sorted records into a run,
// gathering keys and values from pairs through the records' indices
// and applying the combiner (when non-nil) to each key's values as the
// span is formed. A combiner returning zero values drops its key from
// the run.
func buildRun[K cmp.Ordered, V any](pairs []KV[K, V], seg []sortRec, combine Combiner[K, V]) (run[K, V], error) {
	var r run[K, V]
	if len(seg) == 0 {
		return r, nil
	}
	class := prefixClass[K]()
	// spanEnd is the end of the span of records sharing seg[i]'s key.
	spanEnd := func(i int) int {
		j := i + 1
		for j < len(seg) && seg[j].pref == seg[i].pref &&
			(prefProvesEqual(class, seg[i].pref) || pairs[seg[j].idx].Key == pairs[seg[i].idx].Key) {
			j++
		}
		return j
	}
	nk := 0 // distinct keys, sizing the allocations exactly
	for i := 0; i < len(seg); i = spanEnd(i) {
		nk++
	}
	r.keys = make([]K, 0, nk)
	r.prefs = make([]uint64, 0, nk)
	r.offs = make([]int32, 1, nk+1)
	r.vals = make([]V, 0, len(seg))
	var values []V // combiner scratch
	for i := 0; i < len(seg); {
		j := spanEnd(i)
		key := pairs[seg[i].idx].Key
		if combine == nil {
			for _, rec := range seg[i:j] {
				r.vals = append(r.vals, pairs[rec.idx].Value)
			}
		} else {
			values = values[:0]
			for _, rec := range seg[i:j] {
				values = append(values, pairs[rec.idx].Value)
			}
			vs, err := combine(key, values)
			if err != nil {
				return run[K, V]{}, err
			}
			if len(vs) == 0 {
				i = j
				continue
			}
			r.vals = append(r.vals, vs...)
		}
		r.keys = append(r.keys, key)
		r.prefs = append(r.prefs, seg[i].pref)
		r.offs = append(r.offs, int32(len(r.vals)))
		i = j
	}
	return r, nil
}

// mapBuf is one map attempt's scratch: the emitted pairs, each pair's
// partition, and the sort records. Buffers are recycled through mapBufs
// across attempts, tasks and jobs, so a steady stream of map tasks
// stops allocating per pair; the pool, not any job, owns them.
type mapBuf[K cmp.Ordered, V any] struct {
	pairs  []KV[K, V]
	partOf []uint32 // partOf[i] is pairs[i]'s partition
	recs   []sortRec
	tmp    []sortRec // sortRecs scratch
}

// mapBufs pools mapBufs of every instantiation. getMapBuf drops a
// buffer of another instantiation and makes a fresh one.
var mapBufs sync.Pool

func getMapBuf[K cmp.Ordered, V any]() *mapBuf[K, V] {
	if b, ok := mapBufs.Get().(*mapBuf[K, V]); ok {
		return b
	}
	return new(mapBuf[K, V])
}

// reset empties the pair buffer, zeroing the slots the last use wrote,
// so no slot past len ever holds a key or value: a reused or pooled
// buffer never pins a finished attempt's input strings.
func (b *mapBuf[K, V]) reset() {
	clear(b.pairs)
	b.pairs = b.pairs[:0]
}

// release resets b and returns it to the pool.
func (b *mapBuf[K, V]) release() {
	b.reset()
	mapBufs.Put(b)
}

// cursor is one run's read position (a span index) inside a merge.
// task is the run's position in the merge's input order (map-task
// order), used to break key ties so the merge is stable.
type cursor[K cmp.Ordered, V any] struct {
	r    *run[K, V]
	pos  int
	task int
}

// scanMaxRuns is the fan-in up to which the merge scans cursor heads
// linearly instead of maintaining a heap. Head scanning is k inline
// integer compares per group; the heap is O(log k) calls through a
// generic comparison — the crossover sits far above typical map-task
// counts. Variable so tests can force the heap path.
var scanMaxRuns = 64

// mergeRuns merges the sorted runs of one reduce partition, calling
// group once per distinct key with that key's values in (task,
// emission) order and gi the 0-based ordinal of the group in
// ascending-key order — the same ordinal the pre-merge shuffle used,
// which keeps deterministic fault-injection schedules identical. The
// values slice is reused between calls; group implementations must
// not retain it (the Reducer contract). It returns the number of
// pairs consumed and groups formed before stopping (all of them
// unless group errors).
func mergeRuns[K cmp.Ordered, V any](runs []*run[K, V], group func(key K, values []V, gi int) error) (pairs, groups int, err error) {
	switch len(runs) {
	case 0:
		return 0, 0, nil
	case 1:
		// Single run: every span is already a complete group.
		var values []V
		r := runs[0]
		for i, key := range r.keys {
			values = values[:0]
			values = append(values, r.vals[r.offs[i]:r.offs[i+1]]...)
			pairs += len(values)
			gi := groups
			groups++
			if err := group(key, values, gi); err != nil {
				return pairs, groups, err
			}
		}
		return pairs, groups, nil
	}

	class := prefixClass[K]()
	cs := make([]cursor[K, V], 0, len(runs))
	for t, r := range runs {
		if len(r.keys) > 0 {
			cs = append(cs, cursor[K, V]{r: r, task: t})
		}
	}
	if len(cs) <= scanMaxRuns {
		return scanMerge(cs, class, group)
	}
	return heapMerge(cs, class, group)
}

// scanMerge is the small-fan-in merge: each group is found by scanning
// every cursor head for the minimum prefix, then drained in task order
// (cs is task-ordered and stays that way). All the work in the common
// case is inline uint64 compares and bulk span appends.
func scanMerge[K cmp.Ordered, V any](cs []cursor[K, V], class int, group func(key K, values []V, gi int) error) (pairs, groups int, err error) {
	var values []V
	for len(cs) > 0 {
		minPref := cs[0].r.prefs[cs[0].pos]
		for i := 1; i < len(cs); i++ {
			if p := cs[i].r.prefs[cs[i].pos]; p < minPref {
				minPref = p
			}
		}
		// An order-preserving prefix guarantees the minimum key sits
		// under the minimum prefix; on an exact tie any holder's key is
		// THE key, otherwise the tied heads' keys must be compared.
		exact := prefProvesEqual(class, minPref)
		var key K
		found := false
		for i := range cs {
			c := &cs[i]
			if c.r.prefs[c.pos] != minPref {
				continue
			}
			k := c.r.keys[c.pos]
			if !found || (!exact && k < key) {
				key, found = k, true
				if exact {
					break
				}
			}
		}
		values = values[:0]
		drained := false
		for i := range cs {
			c := &cs[i]
			if c.r.prefs[c.pos] != minPref || (!exact && c.r.keys[c.pos] != key) {
				continue
			}
			values = append(values, c.r.vals[c.r.offs[c.pos]:c.r.offs[c.pos+1]]...)
			c.pos++
			if c.pos == len(c.r.keys) {
				drained = true
			}
		}
		pairs += len(values)
		gi := groups
		groups++
		if err := group(key, values, gi); err != nil {
			return pairs, groups, err
		}
		if drained {
			n := 0
			for i := range cs {
				if cs[i].pos < len(cs[i].r.keys) {
					cs[n] = cs[i]
					n++
				}
			}
			cs = cs[:n]
		}
	}
	return pairs, groups, nil
}

// cursorLess orders cursors by (head prefix, head key, task), the
// heap-merge invariant. The key compare is skipped when the prefix
// tie already proves the keys equal.
func cursorLess[K cmp.Ordered, V any](a, b *cursor[K, V], class int) bool {
	pa, pb := a.r.prefs[a.pos], b.r.prefs[b.pos]
	if pa != pb {
		return pa < pb
	}
	if !prefProvesEqual(class, pa) {
		if c := cmp.Compare(a.r.keys[a.pos], b.r.keys[b.pos]); c != 0 {
			return c < 0
		}
	}
	return a.task < b.task
}

// siftDown restores the heap invariant for the subtree rooted at i.
// The heap is hand-rolled rather than container/heap so the merge
// inner loop pays no interface boxing or per-element allocation.
func siftDown[K cmp.Ordered, V any](h []cursor[K, V], i, class int) {
	for {
		l, r := 2*i+1, 2*i+2
		least := i
		if l < len(h) && cursorLess(&h[l], &h[least], class) {
			least = l
		}
		if r < len(h) && cursorLess(&h[r], &h[least], class) {
			least = r
		}
		if least == i {
			return
		}
		h[i], h[least] = h[least], h[i]
		i = least
	}
}

// heapMerge is the wide-fan-in merge: a binary min-heap of cursors
// keeps each step O(log k) when k is too large for head scanning.
func heapMerge[K cmp.Ordered, V any](h []cursor[K, V], class int, group func(key K, values []V, gi int) error) (pairs, groups int, err error) {
	var values []V
	for i := len(h)/2 - 1; i >= 0; i-- {
		siftDown(h, i, class)
	}
	for len(h) > 0 {
		c := &h[0]
		key, pref := c.r.keys[c.pos], c.r.prefs[c.pos]
		values = values[:0]
		// Drain every run's span for this key, lowest task first: the
		// heap's tie-break surfaces contributing runs in task order.
		for {
			c := &h[0]
			values = append(values, c.r.vals[c.r.offs[c.pos]:c.r.offs[c.pos+1]]...)
			c.pos++
			if c.pos == len(c.r.keys) {
				h[0] = h[len(h)-1]
				h = h[:len(h)-1]
			}
			siftDown(h, 0, class)
			if len(h) == 0 {
				break
			}
			c = &h[0]
			if c.r.prefs[c.pos] != pref || (!prefProvesEqual(class, pref) && c.r.keys[c.pos] != key) {
				break
			}
		}
		pairs += len(values)
		gi := groups
		groups++
		if err := group(key, values, gi); err != nil {
			return pairs, groups, err
		}
	}
	return pairs, groups, nil
}
