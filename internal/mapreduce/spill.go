package mapreduce

// spill.go makes map-task output durable (the Parsl-style task
// checkpointing of PR 5): with Job.Spill set, every completed map
// task's sorted runs are persisted as one CRC-framed ckpt file, and a
// re-run of the same job resumes from the first unfinished task —
// valid spill files short-circuit their tasks, everything else
// re-executes. Because runs are persisted after sorting and
// combining, a resumed job feeds byte-identical runs into the shuffle
// merge and therefore produces byte-identical output (the merge is
// deterministic given its input runs).
//
// Resume assumes the re-run presents the same inputs and Config (task
// count, partitioner, reduce fan-out): a spill whose epoch or
// partition count disagrees is ignored, but content-level divergence
// is the caller's contract, exactly as in Hadoop task re-execution.

import (
	"cmp"
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/ckpt"
)

// Spill configures durable map-task output. Dir receives one file per
// map task (<name>-map-<task>.ckpt); the four codec functions embed
// keys and values into the spill frame. Append* must be the exact
// inverse of Read* (Read consumes one element from the front and
// returns the rest).
type Spill[K cmp.Ordered, V any] struct {
	Dir  string
	Name string // file prefix; defaults to "job"

	AppendKey func([]byte, K) []byte
	ReadKey   func([]byte) (K, []byte, error)
	AppendVal func([]byte, V) []byte
	ReadVal   func([]byte) (V, []byte, error)
}

const spillVersion = 1

func (s *Spill[K, V]) prepare() error {
	return prepareDir("Spill", s.Dir, s.AppendKey != nil && s.ReadKey != nil && s.AppendVal != nil && s.ReadVal != nil)
}

// prepareDir checks that a Spill or External config has all four codec
// functions and creates its directory.
func prepareDir(what, dir string, codecs bool) error {
	if !codecs {
		return fmt.Errorf("mapreduce: %s needs all four key/value codec functions", what)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("mapreduce: %s dir: %w", what, err)
	}
	return nil
}

func (s *Spill[K, V]) path(task int) string {
	name := s.Name
	if name == "" {
		name = "job"
	}
	name = strings.Map(func(r rune) rune {
		switch r {
		case '/', '\\', ' ', '.':
			return '-'
		}
		return r
	}, name)
	return filepath.Join(s.Dir, fmt.Sprintf("%s-map-%04d.ckpt", name, task))
}

// save persists one completed map task's per-partition runs. Layout
// after the ckpt frame (epoch = task index):
//
//	u32 spillVersion | u32 nparts | u64 emitted | nparts × appendRun
func (s *Spill[K, V]) save(task int, parts []run[K, V], emitted int) error {
	buf := make([]byte, 0, 1024)
	buf = binary.LittleEndian.AppendUint32(buf, spillVersion)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(parts)))
	buf = binary.LittleEndian.AppendUint64(buf, uint64(emitted))
	for i := range parts {
		buf = appendRun(buf, &parts[i], s.AppendKey, s.AppendVal)
	}
	return ckpt.WriteFile(s.path(task), uint64(task), buf)
}

// load reads a task's spill if present and valid. Any defect —
// missing file, CRC mismatch, wrong task epoch, partition-count
// mismatch, malformed run, codec error — yields ok=false and the task
// simply re-executes; durable resume never turns a bad file into a
// failure.
func (s *Spill[K, V]) load(task, nparts int) (parts []run[K, V], emitted int, ok bool) {
	epoch, buf, err := ckpt.ReadFile(s.path(task))
	if err != nil || epoch != uint64(task) || len(buf) < 16 ||
		binary.LittleEndian.Uint32(buf) != spillVersion || int(binary.LittleEndian.Uint32(buf[4:])) != nparts {
		return nil, 0, false
	}
	emitted = int(binary.LittleEndian.Uint64(buf[8:]))
	buf = buf[16:]
	parts = make([]run[K, V], nparts)
	for p := range parts {
		if parts[p], buf, err = readRun(buf, s.ReadKey, s.ReadVal); err != nil {
			return nil, 0, false
		}
	}
	return parts, emitted, len(buf) == 0
}

// AppendString / ReadString are the length-prefixed string codec for
// spills.
func AppendString(buf []byte, s string) []byte {
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(s)))
	return append(buf, s...)
}

// ReadString consumes one AppendString-encoded string.
func ReadString(buf []byte) (string, []byte, error) {
	if len(buf) < 4 {
		return "", nil, fmt.Errorf("mapreduce: short string header")
	}
	n := int(binary.LittleEndian.Uint32(buf))
	buf = buf[4:]
	if n < 0 || n > len(buf) {
		return "", nil, fmt.Errorf("mapreduce: short string body")
	}
	return string(buf[:n]), buf[n:], nil
}

// AppendInt / ReadInt are the fixed 8-byte integer codec for spills.
func AppendInt(buf []byte, v int) []byte {
	return binary.LittleEndian.AppendUint64(buf, uint64(int64(v)))
}

// ReadInt consumes one AppendInt-encoded integer.
func ReadInt(buf []byte) (int, []byte, error) {
	if len(buf) < 8 {
		return 0, nil, fmt.Errorf("mapreduce: short int")
	}
	return int(int64(binary.LittleEndian.Uint64(buf))), buf[8:], nil
}

// NewStringIntSpill returns the ready-made spill config for
// string-keyed integer-valued jobs (word count and friends).
func NewStringIntSpill(dir, name string) *Spill[string, int] {
	return &Spill[string, int]{
		Dir: dir, Name: name,
		AppendKey: AppendString, ReadKey: ReadString,
		AppendVal: AppendInt, ReadVal: ReadInt,
	}
}
