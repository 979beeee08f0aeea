package main

import (
	"math"
	"testing"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(n - i) // descending, so sorting is exercised
	}
	return xs
}

func TestMedian(t *testing.T) {
	cases := []struct {
		xs   []float64
		want float64
	}{
		{[]float64{3, 1, 2}, 2},
		{[]float64{4, 1, 3, 2}, 2.5},
		{[]float64{7}, 7},
	}
	for _, c := range cases {
		if got := median(c.xs); got != c.want {
			t.Errorf("median(%v) = %v, want %v", c.xs, got, c.want)
		}
	}
	if !math.IsNaN(median(nil)) {
		t.Error("median of no samples should be NaN")
	}
	xs := []float64{3, 1, 2}
	median(xs)
	if xs[0] != 3 || xs[1] != 1 {
		t.Error("median reordered its input")
	}
}

func TestPercentileNearestRank(t *testing.T) {
	got, err := percentile(seq(1000), 99)
	if err != nil || got != 990 {
		t.Fatalf("p99 of 1..1000 = %v, %v; want 990", got, err)
	}
	got, err = percentile(seq(20), 50)
	if err != nil || got != 10 {
		t.Fatalf("p50 of 1..20 = %v, %v; want 10", got, err)
	}
}

// TestPercentileNeedsTenBeyond pins the reporting rule: a percentile is
// refused unless at least ten samples lie above it.
func TestPercentileNeedsTenBeyond(t *testing.T) {
	cases := []struct {
		n      int
		p      float64
		wantOK bool
	}{
		{1000, 99, true}, // rank 990: 10 beyond
		{999, 99, false}, // rank 990: 9 beyond
		{20, 50, true},   // rank 10: 10 beyond
		{19, 50, false},  // rank 10: 9 beyond
		{11, 1, true},    // rank 1: 10 beyond
		{10, 1, false},   // rank 1: 9 beyond
		{0, 50, false},
	}
	for _, c := range cases {
		_, err := percentile(seq(c.n), c.p)
		if (err == nil) != c.wantOK {
			t.Errorf("percentile(n=%d, p%v) error = %v, want ok=%v", c.n, c.p, err, c.wantOK)
		}
	}
	for _, p := range []float64{0, 100, -1, 101} {
		if _, err := percentile(seq(5000), p); err == nil {
			t.Errorf("percentile p%v accepted", p)
		}
	}
}

func TestBlockPercentiles(t *testing.T) {
	// Three blocks of 1000 whose p99s are 990, 1990 and 2990 (the
	// remainder joins the last block without changing its p99 much).
	xs := make([]float64, 0, 3005)
	for b := 0; b < 3; b++ {
		for i := 1; i <= 1000; i++ {
			xs = append(xs, float64(b*1000+i))
		}
	}
	got, err := blockPercentiles(xs, 99, 1000)
	if err != nil || len(got) != 3 || got[0] != 990 || got[1] != 1990 || got[2] != 2990 {
		t.Fatalf("block p99s = %v, %v; want [990 1990 2990]", got, err)
	}
	if m := mean(got); m != 1990 {
		t.Fatalf("mean of block p99s = %v, want 1990", m)
	}
	// One stalled block moves their median by one block's share only.
	for i := 0; i < 1000; i++ {
		xs[i] = 1e9
	}
	if got, _ := blockPercentiles(xs, 99, 1000); median(got) != 2990 {
		t.Fatalf("median block p99 with one stalled block = %v, want 2990", median(got))
	}
	// A block too small for the rule is an error, not a quieter value.
	if _, err := blockPercentiles(seq(1500), 99, 500); err == nil {
		t.Fatal("blocks of 500 accepted for p99")
	}
	// Fewer samples than one block form a single block.
	if got, err := blockPercentiles(seq(1000), 99, 2000); err != nil || len(got) != 1 || got[0] != 990 {
		t.Fatalf("single short block = %v, %v; want [990]", got, err)
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// Expected values are Python's statistics.quantiles(xs, n=4).
	for _, c := range []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{3, 1}, 0.5, 3.5},
		{[]float64{5, 1, 4}, 1, 5},
		{[]float64{2, 9, 4, 7, 1}, 1.5, 8},
	} {
		if q1, q3 := quartiles(c.xs); math.Abs(q1-c.q1) > 1e-12 || math.Abs(q3-c.q3) > 1e-12 {
			t.Errorf("quartiles(%v) = %v, %v, want %v, %v", c.xs, q1, q3, c.q1, c.q3)
		}
	}
	if q1, _ := quartiles([]float64{1}); !math.IsNaN(q1) {
		t.Errorf("quartiles of one sample = %v, want NaN", q1)
	}
}

func TestValidName(t *testing.T) {
	good := []string{"setup_s", "micro.instr_per_s", "ingest_http.go.gc_cycles", "p99", "9lives", "a-b"}
	bad := []string{"", "_lead", ".lead", "-lead", "has space", "slash/name", "pct%", "é", string(make([]byte, 65))}
	for _, n := range good {
		if !validName(n) {
			t.Errorf("validName(%q) = false", n)
		}
	}
	for _, n := range bad {
		if validName(n) {
			t.Errorf("validName(%q) = true", n)
		}
	}
	long := make([]byte, 64)
	for i := range long {
		long[i] = 'a'
	}
	if !validName(string(long)) {
		t.Error("64-character name refused")
	}
}
