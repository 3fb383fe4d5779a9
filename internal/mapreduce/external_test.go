package mapreduce

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"repro/internal/fault"
)

// The out-of-core shuffle must be observationally identical to the
// in-memory sorted-run path: same outputs byte for byte, same stats
// (minus the spill accounting it alone owns), same errors under
// deterministic fault injection — across random jobs, budgets small
// enough that most tasks spill, and merge fan-ins small enough to
// force multi-pass merging.

func TestExternalShuffleOracleRandomizedEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(4711))
	for trial := 0; trial < 40; trial++ {
		records := rng.Intn(400)
		inputs := make([]int, records)
		for i := range inputs {
			inputs[i] = rng.Intn(1 << 20)
		}
		vocab := 1 + rng.Intn(200)
		hot := 0
		if rng.Intn(2) == 1 {
			hot = 1 + rng.Intn(3)
		}
		combine := rng.Intn(2) == 1
		cfg := Config[string]{
			MapTasks:    rng.Intn(10),
			ReduceTasks: 1 + rng.Intn(8),
			Parallelism: 1 + rng.Intn(4),
		}
		if rng.Intn(2) == 1 {
			cfg.Faults = &fault.Plan{Seed: int64(trial), TaskFail: 0.2}
			cfg.MaxAttempts = 10
		}

		extCfg := cfg
		extCfg.MaxShuffleBytes = 1 + int64(rng.Intn(4096)) // tiny: most tasks spill
		extCfg.MergeFanIn = 2 + rng.Intn(3)                // tiny: multi-pass merges
		desc := fmt.Sprintf("trial %d (records=%d vocab=%d hot=%d combine=%v budget=%d fanIn=%d cfg=%+v)",
			trial, records, vocab, hot, combine, extCfg.MaxShuffleBytes, extCfg.MergeFanIn, cfg)

		memOut, memStats, memErr := oracleJob(vocab, hot, combine, cfg).Run(inputs)
		extJob := oracleJob(vocab, hot, combine, extCfg)
		extJob.External = NewStringIntExternal(t.TempDir(), fmt.Sprintf("oracle%d", trial))
		extOut, extStats, extErr := extJob.Run(inputs)

		if (memErr == nil) != (extErr == nil) {
			t.Fatalf("%s: error mismatch: mem=%v ext=%v", desc, memErr, extErr)
		}
		if memErr != nil {
			continue // both failed identically (deterministic injection)
		}
		if !reflect.DeepEqual(memOut, extOut) {
			for i := range memOut {
				if i >= len(extOut) || memOut[i] != extOut[i] {
					t.Fatalf("%s: outputs diverge at %d:\n mem: %q\n ext: %q", desc, i, memOut[i], extOut[i])
				}
			}
			t.Fatalf("%s: output lengths diverge: mem=%d ext=%d", desc, len(memOut), len(extOut))
		}
		// Multi-pass merging and spill accounting are external-only;
		// every other stat — runs, retries, groups — must agree.
		extStats.MergePasses, extStats.SpilledRuns, extStats.SpilledBytes = memStats.MergePasses, 0, 0
		if memStats != extStats {
			t.Fatalf("%s: stats diverge:\n mem: %+v\n ext: %+v", desc, memStats, extStats)
		}
		if left, _ := filepath.Glob(filepath.Join(extJob.External.Dir, "*.run")); memErr == nil && len(left) > 0 {
			t.Fatalf("%s: scratch files left behind: %v", desc, left)
		}
	}
}

// Adversarial string keys must round-trip the wire codec and the
// external merge exactly like the in-memory prefix machinery.
func TestExternalShuffleAdversarialKeys(t *testing.T) {
	job := func() *Job[int, string, int, string] {
		return &Job[int, string, int, string]{
			Name: "adversarial",
			Map: func(r int, emit func(string, int)) error {
				emit(adversarialKeys[r%len(adversarialKeys)], r)
				emit(adversarialKeys[(r*7)%len(adversarialKeys)], -r)
				return nil
			},
			Reduce: func(key string, values []int, emit func(string)) error {
				emit(fmt.Sprintf("%q=%v", key, values))
				return nil
			},
			Config: Config[string]{MapTasks: 7, ReduceTasks: 3, Parallelism: 2},
		}
	}
	inputs := make([]int, 300)
	for i := range inputs {
		inputs[i] = i
	}
	memOut, _, err := job().Run(inputs)
	if err != nil {
		t.Fatal(err)
	}
	ext := job()
	ext.Config.MaxShuffleBytes = 1 // everything spills
	ext.Config.MergeFanIn = 2
	ext.External = NewStringIntExternal(t.TempDir(), "adv")
	extOut, stats, err := ext.Run(inputs)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(memOut, extOut) {
		t.Fatalf("outputs diverge:\n mem: %v\n ext: %v", memOut, extOut)
	}
	if stats.SpilledRuns == 0 {
		t.Fatalf("budget of 1 byte spilled nothing: %+v", stats)
	}
}

// wordCountJob is the canonical external-shuffle workload: word count
// over generated text.
func extWordCountJob(cfg Config[string]) *Job[string, string, int, KV[string, int]] {
	return &Job[string, string, int, KV[string, int]]{
		Name: "wordcount-ext",
		Map: func(line string, emit func(string, int)) error {
			for _, w := range strings.Fields(line) {
				emit(w, 1)
			}
			return nil
		},
		Combine: func(key string, values []int) ([]int, error) {
			sum := 0
			for _, v := range values {
				sum += v
			}
			return []int{sum}, nil
		},
		Reduce: func(key string, values []int, emit func(KV[string, int])) error {
			sum := 0
			for _, v := range values {
				sum += v
			}
			emit(KV[string, int]{key, sum})
			return nil
		},
		Config: cfg,
	}
}

func extCorpus(lines, wordsPerLine, vocab int, seed int64) []string {
	rng := rand.New(rand.NewSource(seed))
	out := make([]string, lines)
	var sb strings.Builder
	for i := range out {
		sb.Reset()
		for w := 0; w < wordsPerLine; w++ {
			if w > 0 {
				sb.WriteByte(' ')
			}
			sb.WriteString("word-")
			sb.WriteString(strconv.Itoa(rng.Intn(vocab)))
		}
		out[i] = sb.String()
	}
	return out
}

// TestExternalShuffleLargerThanBudget runs a word count whose shuffle
// volume is several times the enforced budget and checks the external
// path end to end: resident bytes stayed bounded (spills happened),
// the merge went multi-pass, and the output is byte-identical to the
// unconstrained in-memory run. EXT_SMOKE_LINES scales the corpus up
// for the CI memory-capped smoke job (scripts/external_smoke.sh).
func TestExternalShuffleLargerThanBudget(t *testing.T) {
	lines := 4000
	if s := os.Getenv("EXT_SMOKE_LINES"); s != "" {
		n, err := strconv.Atoi(s)
		if err != nil {
			t.Fatalf("bad EXT_SMOKE_LINES %q: %v", s, err)
		}
		lines = n
	}
	corpus := extCorpus(lines, 16, 5000, 99)

	cfg := Config[string]{MapTasks: 32, ReduceTasks: 4, Parallelism: 2}
	memOut, memStats, err := extWordCountJob(cfg).Run(corpus)
	if err != nil {
		t.Fatal(err)
	}

	// Budget the external run at a quarter of what the in-memory run
	// holds resident, so the shuffle is ≥4× the budget by construction.
	var resident int64
	{
		probe := extWordCountJob(cfg)
		mapOut := make([][]run[string, int], 32)
		splits := splitInputs(corpus, 32)
		for i, split := range splits {
			out, _, _, err := probe.runMapTask(t.Context(), i, split, cfg.withDefaults(), nil)
			if err != nil {
				t.Fatal(err)
			}
			resident += runsResidentBytes(out)
			mapOut[i] = out
		}
	}
	budget := resident / 4

	extCfg := cfg
	extCfg.MaxShuffleBytes = budget
	extCfg.MergeFanIn = 4
	job := extWordCountJob(extCfg)
	job.External = NewStringIntExternal(t.TempDir(), "wc")
	extOut, extStats, err := job.Run(corpus)
	if err != nil {
		t.Fatal(err)
	}

	if !reflect.DeepEqual(memOut, extOut) {
		t.Fatalf("external output diverges from in-memory (%d vs %d records)", len(extOut), len(memOut))
	}
	if extStats.SpilledRuns == 0 || extStats.SpilledBytes == 0 {
		t.Fatalf("shuffle %dB against budget %dB spilled nothing: %+v", resident, budget, extStats)
	}
	if extStats.MergePasses <= memStats.MergePasses {
		t.Fatalf("expected multi-pass external merges (fan-in 4): ext passes %d, mem passes %d",
			extStats.MergePasses, memStats.MergePasses)
	}
	t.Logf("shuffle resident=%dB budget=%dB spilled=%d runs / %dB, merge passes %d (in-memory %d)",
		resident, budget, extStats.SpilledRuns, extStats.SpilledBytes, extStats.MergePasses, memStats.MergePasses)
}

// A run file damaged on disk — bit rot, truncation, wrong file — must
// surface as a clear error from the external merge, never as silently
// wrong output.
func TestExternalRunFileCorruption(t *testing.T) {
	dir := t.TempDir()
	cfg := NewStringIntExternal(dir, "corrupt")
	if err := cfg.prepare(); err != nil {
		t.Fatal(err)
	}
	writeRun := func(t *testing.T, name string, pairs []KV[string, int]) string {
		t.Helper()
		r := makeRun(pairs)
		path := filepath.Join(dir, name)
		if _, err := writeRunFile(cfg, path, &r); err != nil {
			t.Fatal(err)
		}
		return path
	}
	drain := func(path string) error {
		rd, err := openRun(cfg, path)
		if err != nil {
			return err
		}
		defer rd.close()
		src := &extSource[string, int]{rd: rd, path: path}
		_, _, err = extMerge([]*extSource[string, int]{src}, func(string, []int, int) error { return nil })
		return err
	}
	pairs := []KV[string, int]{{"alpha", 1}, {"beta", 2}, {"beta", 3}, {"gamma", 4}}

	t.Run("clean", func(t *testing.T) {
		if err := drain(writeRun(t, "clean.run", pairs)); err != nil {
			t.Fatalf("clean run failed to read: %v", err)
		}
	})
	t.Run("crc-mismatch", func(t *testing.T) {
		path := writeRun(t, "crc.run", pairs)
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		raw[len(raw)-12] ^= 0x40 // inside the last payload block
		if err := os.WriteFile(path, raw, 0o644); err != nil {
			t.Fatal(err)
		}
		err = drain(path)
		if err == nil || !strings.Contains(err.Error(), "CRC mismatch") {
			t.Fatalf("corrupted payload: err = %v, want CRC mismatch", err)
		}
	})
	t.Run("truncated", func(t *testing.T) {
		path := writeRun(t, "short.run", pairs)
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		// Cut the end-of-run marker and part of the final block: the
		// shape a crashed writer leaves behind.
		if err := os.WriteFile(path, raw[:len(raw)-12], 0o644); err != nil {
			t.Fatal(err)
		}
		err = drain(path)
		if err == nil || !strings.Contains(err.Error(), "truncated") {
			t.Fatalf("truncated file: err = %v, want truncation error", err)
		}
	})
	t.Run("bad-magic", func(t *testing.T) {
		path := filepath.Join(dir, "magic.run")
		if err := os.WriteFile(path, []byte("NOPE\x01\x00\x00\x00"), 0o644); err != nil {
			t.Fatal(err)
		}
		if err := drain(path); err == nil || !strings.Contains(err.Error(), "bad magic") {
			t.Fatalf("bad magic: err = %v", err)
		}
	})
	t.Run("empty-file", func(t *testing.T) {
		path := filepath.Join(dir, "empty.run")
		if err := os.WriteFile(path, nil, 0o644); err != nil {
			t.Fatal(err)
		}
		if err := drain(path); err == nil || !strings.Contains(err.Error(), "truncated header") {
			t.Fatalf("empty file: err = %v", err)
		}
	})
}

// The corruption error must also propagate out of a full job run, not
// just the reader in isolation.
func TestExternalMergeSurfacesCorruptRun(t *testing.T) {
	dir := t.TempDir()
	cfg := Config[string]{MapTasks: 8, ReduceTasks: 1, Parallelism: 1,
		MaxShuffleBytes: 1, MergeFanIn: 2}
	ext := NewStringIntExternal(dir, "job")
	x, err := newExtShuffle(ext, cfg.MaxShuffleBytes, cfg.MergeFanIn, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	mapOut := make([][]run[string, int], 2)
	for tsk := 0; tsk < 2; tsk++ {
		mapOut[tsk] = []run[string, int]{makeRun([]KV[string, int]{{"k", tsk}})}
		if err := x.admit(tsk, mapOut[tsk]); err != nil {
			t.Fatal(err)
		}
	}
	// Damage task 1's spilled run, then merge the partition.
	raw, err := os.ReadFile(x.files[1][0])
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)-10] ^= 0x01
	if err := os.WriteFile(x.files[1][0], raw, 0o644); err != nil {
		t.Fatal(err)
	}
	_, err = x.mergePartition(0, mapOut, func(string, []int, int) error { return nil })
	if err == nil || !strings.Contains(err.Error(), "CRC mismatch") {
		t.Fatalf("merge over corrupt run: err = %v, want CRC mismatch", err)
	}
}

func TestExternalConfigValidation(t *testing.T) {
	inputs := []int{1, 2, 3}
	t.Run("budget-without-external", func(t *testing.T) {
		j := oracleJob(10, 0, false, Config[string]{MaxShuffleBytes: 1 << 20})
		if _, _, err := j.Run(inputs); err == nil || !strings.Contains(err.Error(), "Job.External") {
			t.Fatalf("err = %v, want Job.External requirement", err)
		}
	})
	t.Run("reference-shuffle-conflict", func(t *testing.T) {
		j := oracleJob(10, 0, false, Config[string]{MaxShuffleBytes: 1 << 20, ReferenceShuffle: true})
		j.External = NewStringIntExternal(t.TempDir(), "x")
		if _, _, err := j.Run(inputs); err == nil || !strings.Contains(err.Error(), "ReferenceShuffle") {
			t.Fatalf("err = %v, want ReferenceShuffle conflict", err)
		}
	})
	t.Run("missing-codec", func(t *testing.T) {
		j := oracleJob(10, 0, false, Config[string]{MaxShuffleBytes: 1 << 20})
		j.External = &External[string, int]{Dir: t.TempDir(), AppendKey: AppendString}
		if _, _, err := j.Run(inputs); err == nil || !strings.Contains(err.Error(), "codec") {
			t.Fatalf("err = %v, want codec requirement", err)
		}
	})
}
