package main

import (
	"math"
	"testing"
	"time"
)

func TestSelfTimes(t *testing.T) {
	r := newRecorder()
	at := func(s float64) time.Time { return r.epoch.Add(time.Duration(s * float64(time.Second))) }
	a := r.tr.Track("p", 0, "a")
	b := r.tr.Track("p", 1, "b")
	r.span(a, "x.outer", 1, at(0), at(10))
	r.span(a, "y.child", 1, at(2), at(5))
	r.span(a, "x.inner", 1, at(6), at(8)) // same-layer child: counted once
	r.span(a, "y.grandchild", 1, at(6.5), at(7))
	r.span(b, "x.other", 2, at(1), at(5)) // overlaps row a, but rows are separate
	got := r.selfTimes(2)
	want := map[string]float64{
		"x": (10 - 3 - 2 + 2 - 0.5 + 4) / 2.0,
		"y": (3 + 0.5) / 2.0,
	}
	for layer, w := range want {
		if math.Abs(got[layer]-w) > 1e-9 {
			t.Errorf("%s self time %v, want %v", layer, got[layer], w)
		}
	}
	if len(got) != len(want) {
		t.Errorf("layers %v", got)
	}
}
