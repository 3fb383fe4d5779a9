package mapreduce

// external.go makes the sorted-run shuffle out-of-core. The PR-4
// pipeline holds every map task's runs in RAM until the reduce phase
// merges them, so the largest job a machine can shuffle is bounded by
// memory. With Config.MaxShuffleBytes set (and Job.External supplying
// the key/value wire codecs), the map phase keeps an approximate
// resident-bytes account of the buffered runs; a completed task that
// pushes the account past the budget writes its per-partition runs to
// disk instead of retaining them — CRC-framed streaming run files in
// the internal/ckpt discipline — and the reduce phase merges a
// partition's mixture of in-memory and on-disk runs with a bounded
// fan-in, multi-pass k-way external merge (intermediate merged runs
// are re-spilled until at most Config.MergeFanIn sources remain, then
// the final pass streams groups straight into the reducer).
//
// The external path is byte-identical to the in-memory one: runs hold
// the same sorted span-compressed content on disk as in RAM, the merge
// drains equal keys in map-task order (multi-pass merges always take a
// contiguous prefix of task-ordered sources, so the ordering argument
// of merge.go survives re-spilling), no combiner is re-applied during
// intermediate merges, and group ordinals stay the ascending-key
// per-partition ordinals deterministic fault injection is keyed on.
// The randomized shuffle oracle enforces all of this.
//
// Run file wire format (scratch files — no fsync, deleted as they are
// consumed):
//
//	"PRN1" | u32 version
//	blocks: u32 payloadLen | u32 crc32(payload) | payload
//	end:    u32 0 | u32 0
//
// A payload is a sequence of complete spans, each `key | u32 nvals |
// vals...` in the External codec. Spans never straddle blocks, so a
// reader verifies one CRC per ~64 KiB and decodes from a verified
// buffer. A missing end marker means the writer died mid-file; both
// that and a CRC mismatch surface as clear errors — an external merge
// never turns a bad file into silent wrong output.

import (
	"bufio"
	"cmp"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sync/atomic"
	"unsafe"
)

// External configures the out-of-core shuffle: Dir receives the
// spilled run files (scratch — written without fsync and removed as
// the merge consumes them), and the four codec functions define the
// on-disk key/value encoding, with the same inverse contract as
// Spill's. It only takes effect together with Config.MaxShuffleBytes.
type External[K cmp.Ordered, V any] struct {
	Dir  string
	Name string // file prefix; defaults to "job"

	AppendKey func([]byte, K) []byte
	ReadKey   func([]byte) (K, []byte, error)
	AppendVal func([]byte, V) []byte
	ReadVal   func([]byte) (V, []byte, error)
}

func (x *External[K, V]) prepare() error {
	return prepareDir("External", x.Dir, x.AppendKey != nil && x.ReadKey != nil && x.AppendVal != nil && x.ReadVal != nil)
}

// NewStringIntExternal returns the ready-made external-shuffle config
// for string-keyed integer-valued jobs (word count and friends).
func NewStringIntExternal(dir, name string) *External[string, int] {
	return &External[string, int]{
		Dir: dir, Name: name,
		AppendKey: AppendString, ReadKey: ReadString,
		AppendVal: AppendInt, ReadVal: ReadInt,
	}
}

const (
	runVersion     = 1
	runBlockTarget = 64 << 10 // flush threshold; single huge spans may exceed it
	defaultFanIn   = 16
)

var runMagic = [4]byte{'P', 'R', 'N', '1'}

// extShuffle is the per-execution state of the out-of-core shuffle:
// the resident-bytes account the map phase debits against, and the
// per-(task, partition) paths of spilled run files.
type extShuffle[K cmp.Ordered, V any] struct {
	cfg    *External[K, V]
	budget int64
	fanIn  int

	resident     atomic.Int64
	files        [][]string // [task][partition] -> run file path, "" if in memory/empty
	spilledRuns  atomic.Int64
	spilledBytes atomic.Int64
	extraPasses  atomic.Int64 // intermediate (non-final) merge passes
}

func newExtShuffle[K cmp.Ordered, V any](cfg *External[K, V], budget int64, fanIn, tasks, parts int) (*extShuffle[K, V], error) {
	if err := cfg.prepare(); err != nil {
		return nil, err
	}
	if fanIn < 2 {
		fanIn = defaultFanIn
	}
	files := make([][]string, tasks)
	for t := range files {
		files[t] = make([]string, parts)
	}
	return &extShuffle[K, V]{cfg: cfg, budget: budget, fanIn: fanIn, files: files}, nil
}

func (x *extShuffle[K, V]) name() string {
	if x.cfg.Name != "" {
		return x.cfg.Name
	}
	return "job"
}

// admit charges task t's completed runs against the resident budget.
// If the account overflows, the task's non-empty partition runs are
// written to disk and dropped from memory (parts[p] zeroed), keeping
// resident bytes bounded by roughly budget plus one task's output.
// Which tasks spill depends on completion order, but the merge output
// does not — a run's content is the same on disk as in RAM.
func (x *extShuffle[K, V]) admit(task int, parts []run[K, V]) error {
	size := runsResidentBytes(parts)
	if x.resident.Add(size) <= x.budget {
		return nil
	}
	x.resident.Add(-size)
	for p := range parts {
		r := &parts[p]
		if len(r.keys) == 0 {
			continue
		}
		path := filepath.Join(x.cfg.Dir, fmt.Sprintf("%s-t%04d-p%03d.run", x.name(), task, p))
		n, err := writeRunFile(x.cfg, path, r)
		if err != nil {
			return fmt.Errorf("mapreduce: map task %d partition %d spill: %w", task, p, err)
		}
		x.files[task][p] = path
		x.spilledRuns.Add(1)
		x.spilledBytes.Add(n)
		*r = run[K, V]{}
	}
	return nil
}

// hasDisk reports whether partition p has at least one on-disk run.
func (x *extShuffle[K, V]) hasDisk(p int) bool {
	for t := range x.files {
		if x.files[t][p] != "" {
			return true
		}
	}
	return false
}

// cleanup removes any spilled files still on disk (merge errors leave
// partially consumed inputs behind). Best effort.
func (x *extShuffle[K, V]) cleanup() {
	for t := range x.files {
		for _, path := range x.files[t] {
			if path != "" {
				os.Remove(path)
			}
		}
	}
}

// runsResidentBytes estimates the resident footprint of a task's runs:
// array backing for keys, prefixes, offsets, and values, plus string
// bytes where K or V is a string. An estimate is all the budget needs
// — the point is bounding RAM to the right order, not byte accounting.
func runsResidentBytes[K cmp.Ordered, V any](parts []run[K, V]) int64 {
	var kz K
	var vz V
	keyFixed := int64(unsafe.Sizeof(kz)) + 12 // + pref (8) + off (4)
	valFixed := int64(unsafe.Sizeof(vz))
	total := int64(0)
	for i := range parts {
		r := &parts[i]
		total += int64(len(r.keys))*keyFixed + int64(len(r.vals))*valFixed
		if ks, ok := any(r.keys).([]string); ok {
			for _, s := range ks {
				total += int64(len(s))
			}
		}
		if vs, ok := any(r.vals).([]string); ok {
			for _, s := range vs {
				total += int64(len(s))
			}
		}
	}
	return total
}

// ---- streaming run files -------------------------------------------

// runWriter streams spans into a CRC-block-framed run file.
type runWriter[K cmp.Ordered, V any] struct {
	cfg   *External[K, V]
	f     *os.File
	w     *bufio.Writer
	block []byte
	bytes int64
}

func newRunWriter[K cmp.Ordered, V any](cfg *External[K, V], path string) (*runWriter[K, V], error) {
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return nil, err
	}
	w := &runWriter[K, V]{cfg: cfg, f: f, w: bufio.NewWriterSize(f, 128<<10)}
	var hdr [8]byte
	copy(hdr[:4], runMagic[:])
	binary.LittleEndian.PutUint32(hdr[4:], runVersion)
	if _, err := w.w.Write(hdr[:]); err != nil {
		f.Close()
		return nil, err
	}
	w.bytes = 8
	return w, nil
}

// writeSpan appends one (key, values) span to the current block,
// flushing the block once it reaches the target size.
func (w *runWriter[K, V]) writeSpan(key K, vals []V) error {
	buf := w.cfg.AppendKey(w.block, key)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(vals)))
	for _, v := range vals {
		buf = w.cfg.AppendVal(buf, v)
	}
	w.block = buf
	if len(w.block) >= runBlockTarget {
		return w.flushBlock()
	}
	return nil
}

func (w *runWriter[K, V]) flushBlock() error {
	if len(w.block) == 0 {
		return nil
	}
	var hdr [8]byte
	binary.LittleEndian.PutUint32(hdr[:4], uint32(len(w.block)))
	binary.LittleEndian.PutUint32(hdr[4:], crc32.ChecksumIEEE(w.block))
	if _, err := w.w.Write(hdr[:]); err != nil {
		return err
	}
	if _, err := w.w.Write(w.block); err != nil {
		return err
	}
	w.bytes += int64(8 + len(w.block))
	w.block = w.block[:0]
	return nil
}

// close flushes the final block, writes the end-of-run marker, and
// closes the file. A file without the marker is detectably truncated.
func (w *runWriter[K, V]) close() error {
	if err := w.flushBlock(); err != nil {
		w.f.Close()
		return err
	}
	var end [8]byte
	if _, err := w.w.Write(end[:]); err != nil {
		w.f.Close()
		return err
	}
	w.bytes += 8
	if err := w.w.Flush(); err != nil {
		w.f.Close()
		return err
	}
	return w.f.Close()
}

// writeRunFile spills one in-memory run to path, returning the file
// size in bytes.
func writeRunFile[K cmp.Ordered, V any](cfg *External[K, V], path string, r *run[K, V]) (int64, error) {
	w, err := newRunWriter(cfg, path)
	if err != nil {
		return 0, err
	}
	for i := range r.keys {
		if err := w.writeSpan(r.keys[i], r.vals[r.offs[i]:r.offs[i+1]]); err != nil {
			w.f.Close()
			os.Remove(path)
			return 0, err
		}
	}
	if err := w.close(); err != nil {
		os.Remove(path)
		return 0, err
	}
	return w.bytes, nil
}

// runReader streams spans back out of a run file, verifying one CRC
// per block. Every defect — short header, bad magic, truncation (no
// end marker), CRC mismatch, codec error — is a hard error naming the
// file: external merges fail loudly rather than merge corrupt data.
type runReader[K cmp.Ordered, V any] struct {
	cfg   *External[K, V]
	path  string
	f     *os.File
	r     *bufio.Reader
	block []byte // undecoded remainder of the current verified block
	buf   []byte // reusable block backing
	done  bool
}

func openRun[K cmp.Ordered, V any](cfg *External[K, V], path string) (*runReader[K, V], error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("mapreduce: external run: %w", err)
	}
	r := &runReader[K, V]{cfg: cfg, path: path, f: f, r: bufio.NewReaderSize(f, 128<<10)}
	var hdr [8]byte
	if _, err := io.ReadFull(r.r, hdr[:]); err != nil {
		f.Close()
		return nil, fmt.Errorf("mapreduce: external run %s: truncated header: %w", path, err)
	}
	if [4]byte(hdr[:4]) != runMagic {
		f.Close()
		return nil, fmt.Errorf("mapreduce: external run %s: bad magic %q", path, hdr[:4])
	}
	if v := binary.LittleEndian.Uint32(hdr[4:]); v != runVersion {
		f.Close()
		return nil, fmt.Errorf("mapreduce: external run %s: unsupported version %d", path, v)
	}
	return r, nil
}

func (r *runReader[K, V]) close() error { return r.f.Close() }

// nextBlock reads and verifies the next block into r.block, setting
// done on the clean end-of-run marker.
func (r *runReader[K, V]) nextBlock() error {
	var hdr [8]byte
	if _, err := io.ReadFull(r.r, hdr[:]); err != nil {
		return fmt.Errorf("mapreduce: external run %s: truncated (missing end-of-run marker): %w", r.path, err)
	}
	n := binary.LittleEndian.Uint32(hdr[:4])
	want := binary.LittleEndian.Uint32(hdr[4:])
	if n == 0 {
		r.done = true
		return nil
	}
	if cap(r.buf) < int(n) {
		r.buf = make([]byte, n)
	}
	r.buf = r.buf[:n]
	if _, err := io.ReadFull(r.r, r.buf); err != nil {
		return fmt.Errorf("mapreduce: external run %s: truncated block: %w", r.path, err)
	}
	if got := crc32.ChecksumIEEE(r.buf); got != want {
		return fmt.Errorf("mapreduce: external run %s: block CRC mismatch (got %08x, want %08x)", r.path, got, want)
	}
	r.block = r.buf
	return nil
}

// nextSpan decodes the next (key, values) span, appending values to
// dst. ok=false with a nil error is the clean end of the run.
func (r *runReader[K, V]) nextSpan(dst []V) (key K, vals []V, ok bool, err error) {
	for len(r.block) == 0 {
		if r.done {
			return key, dst, false, nil
		}
		if err := r.nextBlock(); err != nil {
			return key, dst, false, err
		}
	}
	corrupt := func(what string, err error) error {
		return fmt.Errorf("mapreduce: external run %s: corrupt span (%s): %w", r.path, what, err)
	}
	key, rest, err := r.cfg.ReadKey(r.block)
	if err != nil {
		return key, dst, false, corrupt("key", err)
	}
	if len(rest) < 4 {
		return key, dst, false, corrupt("value count", io.ErrUnexpectedEOF)
	}
	n := binary.LittleEndian.Uint32(rest)
	rest = rest[4:]
	for i := uint32(0); i < n; i++ {
		var v V
		v, rest, err = r.cfg.ReadVal(rest)
		if err != nil {
			return key, dst, false, corrupt("value", err)
		}
		dst = append(dst, v)
	}
	r.block = rest
	return key, dst, true, nil
}

// ---- external merge ------------------------------------------------

// extSource is one merge input: an in-memory run or a streaming
// on-disk run. Sources are kept (and merged) in map-task order so the
// value-ordering guarantee of merge.go survives the external path.
type extSource[K cmp.Ordered, V any] struct {
	mem *run[K, V]
	pos int

	rd      *runReader[K, V]
	rdSpan  []V // disk: current span's values (reused)
	path    string
	pref    uint64
	key     K
	done    bool
	primedK bool
}

// next loads the source's next span head, marking done at the end.
func (s *extSource[K, V]) next() error {
	if s.mem != nil {
		if s.primedK {
			s.pos++
		}
		s.primedK = true
		if s.pos >= len(s.mem.keys) {
			s.done = true
			return nil
		}
		s.key, s.pref = s.mem.keys[s.pos], s.mem.prefs[s.pos]
		return nil
	}
	key, vals, ok, err := s.rd.nextSpan(s.rdSpan[:0])
	if err != nil {
		return err
	}
	if !ok {
		s.done = true
		return nil
	}
	s.key, s.rdSpan, s.pref = key, vals, keyPrefix(key)
	return nil
}

// appendSpan appends the current span's values to dst.
func (s *extSource[K, V]) appendSpan(dst []V) []V {
	if s.mem != nil {
		return append(dst, s.mem.vals[s.mem.offs[s.pos]:s.mem.offs[s.pos+1]]...)
	}
	return append(dst, s.rdSpan...)
}

// extMerge merges task-ordered sources, calling group once per
// distinct key with values in (task, emission) order — the streaming
// analogue of scanMerge over mixed memory/disk inputs. Fan-in is
// bounded by the caller (Config.MergeFanIn), so a head scan is always
// the right shape.
func extMerge[K cmp.Ordered, V any](sources []*extSource[K, V], group func(key K, values []V, gi int) error) (pairs, groups int, err error) {
	class := prefixClass[K]()
	cs := make([]*extSource[K, V], 0, len(sources))
	for _, s := range sources {
		if err := s.next(); err != nil {
			return 0, 0, err
		}
		if !s.done {
			cs = append(cs, s)
		}
	}
	var values []V
	for len(cs) > 0 {
		minPref := cs[0].pref
		for _, s := range cs[1:] {
			if s.pref < minPref {
				minPref = s.pref
			}
		}
		exact := prefProvesEqual(class, minPref)
		var key K
		found := false
		for _, s := range cs {
			if s.pref != minPref {
				continue
			}
			if !found || (!exact && s.key < key) {
				key, found = s.key, true
				if exact {
					break
				}
			}
		}
		values = values[:0]
		drained := false
		for _, s := range cs {
			if s.pref != minPref || (!exact && s.key != key) {
				continue
			}
			values = s.appendSpan(values)
			if err := s.next(); err != nil {
				return pairs, groups, err
			}
			if s.done {
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
			for _, s := range cs {
				if !s.done {
					cs[n] = s
					n++
				}
			}
			cs = cs[:n]
		}
	}
	return pairs, groups, nil
}

// mergePartition runs partition p's external merge: sources are the
// task-ordered mixture of in-memory runs and spilled run files; while
// more than fanIn sources remain, the first fanIn are merged into a
// new on-disk run that replaces them (a contiguous task-prefix, so
// ordering is preserved), and the final pass streams groups into
// group. It reports pairs and groups delivered, the initial run count,
// and the total number of merge passes (intermediate + final).
func (x *extShuffle[K, V]) mergePartition(p int, mapOut [][]run[K, V], group func(key K, values []V, gi int) error) (ps partStats, err error) {
	var sources []*extSource[K, V]
	// Close and delete whatever scratch files this partition still
	// holds, whether the merge finished or failed.
	defer func() {
		for _, s := range sources {
			if s.rd != nil {
				s.rd.close()
				os.Remove(s.path)
			}
		}
	}()

	for t := range mapOut {
		if path := x.files[t][p]; path != "" {
			rd, err := openRun(x.cfg, path)
			if err != nil {
				return ps, err
			}
			sources = append(sources, &extSource[K, V]{rd: rd, path: path})
		} else if p < len(mapOut[t]) && len(mapOut[t][p].keys) > 0 {
			sources = append(sources, &extSource[K, V]{mem: &mapOut[t][p]})
		}
	}
	ps.runs = len(sources)
	if ps.runs == 0 {
		return ps, nil
	}

	seq := 0
	for len(sources) > x.fanIn {
		batch := sources[:x.fanIn]
		path := filepath.Join(x.cfg.Dir, fmt.Sprintf("%s-p%03d-m%04d.run", x.name(), p, seq))
		seq++
		w, err := newRunWriter(x.cfg, path)
		if err != nil {
			return ps, err
		}
		_, _, err = extMerge(batch, func(key K, values []V, _ int) error {
			return w.writeSpan(key, values)
		})
		if err != nil {
			w.f.Close()
			os.Remove(path)
			return ps, err
		}
		if err := w.close(); err != nil {
			os.Remove(path)
			return ps, err
		}
		x.spilledBytes.Add(w.bytes)
		for _, s := range batch {
			if s.rd != nil {
				s.rd.close()
				os.Remove(s.path)
			}
		}
		rd, err := openRun(x.cfg, path)
		if err != nil {
			return ps, err
		}
		merged := &extSource[K, V]{rd: rd, path: path}
		rest := sources[x.fanIn:]
		sources = append(make([]*extSource[K, V], 0, len(rest)+1), merged)
		sources = append(sources, rest...)
		ps.passes++
		x.extraPasses.Add(1)
	}

	ps.pairs, ps.groups, err = extMerge(sources, group)
	ps.passes++
	return ps, err
}
