package main

import (
	"context"
	"slices"
	"testing"
)

// smallWordCount is the wordcount-1m workload at test size.
func smallWordCount(seed int64) *wordCount {
	return &wordCount{seed: seed, nLines: 20_000, nVocab: 2_000}
}

func TestCorpusSeeded(t *testing.T) {
	a, b, c := smallWordCount(7), smallWordCount(7), smallWordCount(8)
	for _, w := range []*wordCount{a, b, c} {
		if err := w.setup(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
	if !slices.Equal(a.lines, b.lines) {
		t.Fatal("the same seed gave different corpora")
	}
	if slices.Equal(a.lines, c.lines) {
		t.Fatal("different seeds gave the same corpus")
	}
	if len(a.lines) != 20_000 || len(a.want) > 2_000 {
		t.Fatalf("corpus shape: %d lines, %d distinct words", len(a.lines), len(a.want))
	}
	// Both corpora pass the oracle, untraced and traced.
	for _, w := range []*wordCount{a, c} {
		for _, rec := range []*recorder{nil, newRecorder()} {
			p, err := w.run(context.Background(), 0, rec)
			if err != nil || p.failed != 0 || len(p.lat) != 1 {
				t.Fatalf("seed %d traced=%v: %+v, %v", w.seed, rec != nil, p, err)
			}
		}
		got := w.layers()
		if got["mapreduce.map_outputs"] != 3*20_000 || got["mapreduce.partition_calls"] != 3*20_000 {
			t.Fatalf("seed %d: probe counts %v", w.seed, got)
		}
	}
}

func TestCheckCountsRejectsWrongOutput(t *testing.T) {
	want := map[string]int{"a": 2, "b": 1}
	if err := checkCounts([]wcOut{{"a", 2}, {"b", 1}}, want); err != nil {
		t.Fatal(err)
	}
	for _, out := range [][]wcOut{{{"a", 2}}, {{"a", 2}, {"b", 2}}, {{"a", 2}, {"c", 1}}} {
		if checkCounts(out, want) == nil {
			t.Fatalf("accepted %v", out)
		}
	}
}

func TestJobOrderSeeded(t *testing.T) {
	a := genJobOrder(3, 0, len(pdMix), 1000)
	if !slices.Equal(a, genJobOrder(3, 0, len(pdMix), 1000)) {
		t.Fatal("the same seed gave different job orders")
	}
	if slices.Equal(a, genJobOrder(4, 0, len(pdMix), 1000)) {
		t.Fatal("different seeds gave the same job order")
	}
	if slices.Equal(a, genJobOrder(3, 1, len(pdMix), 1000)) {
		t.Fatal("two clients share one job order")
	}
	// Every block of len(pdMix) jobs holds each spec once.
	for i := 0; i+len(pdMix) <= len(a); i += len(pdMix) {
		block := slices.Clone(a[i : i+len(pdMix)])
		slices.Sort(block)
		for k, v := range block {
			if v != k {
				t.Fatalf("block at %d is %v", i, a[i:i+len(pdMix)])
			}
		}
	}
}

// TestPeachydMix runs the job mix for two seeds through a real service:
// both orders pass the byte-equality oracle, untraced and traced.
func TestPeachydMix(t *testing.T) {
	if testing.Short() {
		t.Skip("runs real jobs")
	}
	for _, seed := range []int64{1, 2} {
		w := newPeachyd(seed, "").(*peachyd)
		if err := w.setup(context.Background()); err != nil {
			t.Fatal(err)
		}
		for _, rec := range []*recorder{nil, newRecorder()} {
			p, err := w.run(context.Background(), 0, rec)
			if err != nil || p.failed != 0 || len(p.lat) != pdClients {
				t.Fatalf("seed %d traced=%v: %+v, %v", seed, rec != nil, p, err)
			}
		}
		if got := w.layers()["job.polls_per_job"]; got < 1 {
			t.Fatalf("seed %d: polls per job %v", seed, got)
		}
		w.close()
	}
}
