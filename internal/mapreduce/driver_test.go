package mapreduce

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	pnet "repro/internal/net"
)

// lineCountJob is word count with "word\tcount" line outputs, so the
// typed entry points and the streaming ones return comparable results.
func lineCountJob(cfg Config[string]) *Job[string, string, int, string] {
	return &Job[string, string, int, string]{
		Name:   "linecount",
		Config: cfg,
		Map: func(line string, emit func(string, int)) error {
			for _, w := range strings.Fields(line) {
				emit(w, 1)
			}
			return nil
		},
		Reduce: func(key string, values []int, emit func(string)) error {
			sum := 0
			for _, v := range values {
				sum += v
			}
			emit(FormatKV(key, strconv.Itoa(sum)))
			return nil
		},
	}
}

func lineCountWire() *Wire[string, string, int, string] {
	return &Wire[string, string, int, string]{
		AppendIn: AppendString, ReadIn: ReadString,
		AppendKey: AppendString, ReadKey: ReadString,
		AppendVal: AppendInt, ReadVal: ReadInt,
		AppendOut: AppendString, ReadOut: ReadString,
	}
}

// runLineCountFleet runs lineCountJob over three goroutine workers on
// the chan transport.
func runLineCountFleet(t *testing.T, cfg Config[string], lines []string) ([]string, Stats, error) {
	t.Helper()
	tr, _ := pnet.New("chan")
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var once sync.Once
	fc := &pnet.FleetConfig{
		Transport:   tr,
		Listen:      "mr-agree-" + t.Name(),
		Workers:     3,
		Lease:       300 * time.Millisecond,
		JoinTimeout: 10 * time.Second,
		Spawn: func(rank int, addr string) error {
			once.Do(func() {
				for r := 0; r < 3; r++ {
					go lineCountJob(cfg).FleetWorker(ctx, pnet.WorkerConfig{
						Transport: tr, Join: addr, Rank: r,
						Backoff:         pnet.Backoff{Base: 5 * time.Millisecond, Max: 100 * time.Millisecond},
						MaxDialAttempts: 1000,
					}, lineCountWire())
				}
			})
			return nil
		},
	}
	return lineCountJob(cfg).RunFleet(ctx, lines, fc, lineCountWire())
}

// TestEntryPointsAgree runs one word count through every entry point
// and requires identical outputs and identical job statistics: the
// entry points differ only in where map tasks run, never in what the
// job computes or reports.
func TestEntryPointsAgree(t *testing.T) {
	cfg := Config[string]{MapTasks: 4, ReduceTasks: 3}
	lines := fleetCorpus(200)
	want, wantStats, err := lineCountJob(cfg).Run(lines)
	if err != nil {
		t.Fatal(err)
	}
	if wantStats.ShuffleRuns == 0 || wantStats.MergePasses == 0 {
		t.Fatalf("reference run reported no shuffle: %+v", wantStats)
	}
	entries := map[string]func() ([]string, Stats, error){
		"RunSpeculative": func() ([]string, Stats, error) {
			out, st, err := lineCountJob(cfg).RunSpeculative(lines, SpecConfig{})
			return out, st.Stats, err
		},
		"RunFleet": func() ([]string, Stats, error) { return runLineCountFleet(t, cfg, lines) },
		"StreamJob.RunLines": func() ([]string, Stats, error) {
			sj := &StreamJob{
				Config: cfg,
				Map: func(line string, emit func(key, value string)) error {
					for _, w := range strings.Fields(line) {
						emit(w, "1")
					}
					return nil
				},
				Reduce: func(key string, values []string, emit func(string)) error {
					emit(FormatKV(key, strconv.Itoa(len(values))))
					return nil
				},
			}
			return sj.RunLines(lines)
		},
		"RunStreamingPipeline": func() ([]string, Stats, error) {
			requireTools(t, "awk")
			return RunStreamingPipeline(lines,
				[]string{"awk", `{for (i = 1; i <= NF; i++) print $i "\t1"}`},
				[]string{"awk", "-F", `\t`, `{sum[$1] += $2} END {for (k in sum) print k "\t" sum[k]}`},
				cfg)
		},
	}
	for name, run := range entries {
		t.Run(name, func(t *testing.T) {
			got, st, err := run()
			if err != nil {
				t.Fatal(err)
			}
			if strings.Join(got, "\n") != strings.Join(want, "\n") {
				t.Fatalf("outputs differ from Run:\n%v\nvs\n%v", got, want)
			}
			type shared struct {
				MapTasks, ReduceTasks, MapInputs, MapOutputs, CombineOutputs,
				ReduceGroups, ShuffleRuns, MergePasses int
			}
			pick := func(s Stats) shared {
				return shared{s.MapTasks, s.ReduceTasks, s.MapInputs, s.MapOutputs, s.CombineOutputs,
					s.ReduceGroups, s.ShuffleRuns, s.MergePasses}
			}
			if pick(st) != pick(wantStats) {
				t.Fatalf("stats %+v, Run reported %+v", pick(st), pick(wantStats))
			}
		})
	}
}

// TestSpillGoldenResumes resumes from spill files written by an
// earlier build (testdata/spill-v1: spillWordCount over
// spillCorpus(11, 24), spill format version 1). Every task must resume
// from its file and the output must be byte-identical to a clean run,
// so a change to the spill layout cannot slip past peachyd's restart
// resume unnoticed.
func TestSpillGoldenResumes(t *testing.T) {
	inputs := spillCorpus(11, 24)
	ref, _, err := spillWordCount(nil).Run(inputs)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	golden, _ := filepath.Glob(filepath.Join("testdata", "spill-v1", "golden-map-*.ckpt"))
	if len(golden) == 0 {
		t.Fatal("no golden spill files")
	}
	for _, src := range golden {
		raw, err := os.ReadFile(src)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, filepath.Base(src)), raw, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	out, st, err := spillWordCount(NewStringIntSpill(dir, "golden")).Run(inputs)
	if err != nil {
		t.Fatal(err)
	}
	if st.MapTasksResumed != st.MapTasks || st.MapTasks != len(golden) {
		t.Fatalf("resumed %d of %d tasks from %d golden files", st.MapTasksResumed, st.MapTasks, len(golden))
	}
	if fmt.Sprint(out) != fmt.Sprint(ref) {
		t.Fatalf("resumed output differs from a clean run:\n%v\nvs\n%v", out, ref)
	}
}
