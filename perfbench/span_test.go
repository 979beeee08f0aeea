package main

import (
	"testing"
	"time"
)

func TestSelfTimes(t *testing.T) {
	spans := []span{
		// A root with two sequential children: 100 - 20 - 10.
		{ID: 1, Name: "root", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "a", Start: 10, End: 30},
		{ID: 3, Parent: 1, Name: "b", Start: 50, End: 60},
		// A root whose children overlap (parallel workers): their union
		// [10, 70) is subtracted once.
		{ID: 4, Name: "par", Start: 0, End: 100},
		{ID: 5, Parent: 4, Name: "w", Start: 10, End: 50},
		{ID: 6, Parent: 4, Name: "w", Start: 30, End: 70},
		// A child with a grandchild: the child loses the grandchild's
		// time, the root loses the child's whole span.
		{ID: 7, Name: "outer", Start: 200, End: 300},
		{ID: 8, Parent: 7, Name: "mid", Start: 210, End: 290},
		{ID: 9, Parent: 8, Name: "leaf", Start: 220, End: 250},
		// A child that outlives its parent only covers the overlap.
		{ID: 10, Name: "short", Start: 400, End: 410},
		{ID: 11, Parent: 10, Name: "late", Start: 405, End: 420},
		// Reserved but never ended: ignored.
		{},
	}
	want := map[string]time.Duration{
		"root": 70, "a": 20, "b": 10,
		"par": 40, "w": 80,
		"outer": 20, "mid": 50, "leaf": 30,
		"short": 5, "late": 15,
	}
	got := selfTimes(spans)
	for name, w := range want {
		if got[name] != w {
			t.Errorf("self(%s) = %d, want %d", name, got[name], w)
		}
	}
	if len(got) != len(want) {
		t.Errorf("self times for %d names, want %d: %v", len(got), len(want), got)
	}
}

func TestCovered(t *testing.T) {
	cases := []struct {
		ivs    [][2]int64
		lo, hi int64
		want   int64
	}{
		{nil, 0, 10, 0},
		{[][2]int64{{2, 4}, {6, 8}}, 0, 10, 4},
		{[][2]int64{{6, 8}, {2, 7}}, 0, 10, 6}, // unsorted, overlapping
		{[][2]int64{{0, 5}, {5, 10}}, 0, 10, 10},
		{[][2]int64{{-5, 3}, {8, 20}}, 0, 10, 5}, // clipped to [lo, hi)
		{[][2]int64{{1, 9}, {2, 3}}, 0, 10, 8},   // nested
	}
	for _, c := range cases {
		if got := covered(c.ivs, c.lo, c.hi); got != c.want {
			t.Errorf("covered(%v, %d, %d) = %d, want %d", c.ivs, c.lo, c.hi, got, c.want)
		}
	}
}

func TestRecorderNesting(t *testing.T) {
	rec := newRecorder()
	root := rec.start("root", 0)
	if err := rec.timed("child", root.id, func(id int64) error {
		time.Sleep(2 * time.Millisecond)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	open := rec.start("never-ended", root.id)
	_ = open
	total := root.end()
	spans := rec.snapshot()
	if len(spans) != 3 {
		t.Fatalf("%d spans recorded, want 3", len(spans))
	}
	if spans[1].Parent != spans[0].ID || spans[0].Parent != 0 {
		t.Fatalf("parent links wrong: %+v", spans)
	}
	self := selfTimes(spans)
	if child := duration(spans, "child"); child < 2*time.Millisecond {
		t.Fatalf("child duration %v, want at least the 2ms it slept", child)
	}
	if self["root"]+self["child"] != total {
		t.Fatalf("self times %v do not add up to the root's %v", self, total)
	}
	if _, ok := self["never-ended"]; ok {
		t.Fatal("an unended span has a self time")
	}
}
