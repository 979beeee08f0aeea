package micro

import (
	"testing"
	"testing/quick"

	"repro/internal/rng"
)

func TestCacheGeometry(t *testing.T) {
	c := MustCache("t", 32<<10, 8, 64)
	if c.Sets() != 64 || c.Ways() != 8 || c.LineSize() != 64 {
		t.Fatalf("geometry sets=%d ways=%d line=%d", c.Sets(), c.Ways(), c.LineSize())
	}
	if c.SizeBytes() != 32<<10 {
		t.Fatalf("size %d", c.SizeBytes())
	}
}

func TestCacheRejectsBadGeometry(t *testing.T) {
	cases := []struct {
		size, ways, line int
	}{
		{0, 8, 64},          // zero size
		{32 << 10, 0, 64},   // zero ways
		{100, 1, 64},        // size not divisible
		{3 * 64 * 8, 8, 64}, // 3 sets: not power of two
		{32 << 10, 8, 48},   // line not power of two
	}
	for _, tc := range cases {
		if _, err := NewCache("bad", tc.size, tc.ways, tc.line); err == nil {
			t.Fatalf("accepted bad geometry %+v", tc)
		}
	}
}

func TestCacheHitAfterMiss(t *testing.T) {
	c := MustCache("t", 1<<10, 2, 64)
	if c.Access(0x1000) {
		t.Fatal("cold access hit")
	}
	if !c.Access(0x1000) {
		t.Fatal("second access missed")
	}
	if !c.Access(0x1008) {
		t.Fatal("same-line access missed")
	}
	if c.Accesses != 3 || c.Misses != 1 {
		t.Fatalf("stats accesses=%d misses=%d", c.Accesses, c.Misses)
	}
}

func TestCacheLRUEviction(t *testing.T) {
	// 2-way cache: fill a set with 2 lines, touch the first, insert a
	// third; the second (least recently used) must be evicted.
	c := MustCache("t", 2*64*4, 2, 64) // 4 sets, 2 ways
	setStride := uint64(4 * 64)        // addresses mapping to set 0
	a, b, d := uint64(0), setStride, 2*setStride
	c.Access(a)
	c.Access(b)
	c.Access(a) // refresh a
	c.Access(d) // evicts b
	if !c.Access(a) {
		t.Fatal("a was evicted despite being MRU")
	}
	if c.Access(b) {
		t.Fatal("b survived eviction")
	}
}

func TestCacheWorkingSetFits(t *testing.T) {
	c := MustCache("t", 8<<10, 8, 64)
	// Working set half the cache: after warmup, zero misses.
	for pass := 0; pass < 3; pass++ {
		c.ResetStats()
		for addr := uint64(0); addr < 4<<10; addr += 64 {
			c.Access(addr)
		}
	}
	if c.Misses != 0 {
		t.Fatalf("fitting working set missed %d times", c.Misses)
	}
}

func TestCacheThrashing(t *testing.T) {
	c := MustCache("t", 1<<10, 1, 64) // direct-mapped 1 KB
	// Working set 4x the cache, sequential sweep: every access misses
	// after the set conflicts wrap.
	for pass := 0; pass < 2; pass++ {
		for addr := uint64(0); addr < 4<<10; addr += 64 {
			c.Access(addr)
		}
	}
	if c.MissRate() < 0.9 {
		t.Fatalf("thrashing miss rate %v, want ~1", c.MissRate())
	}
}

func TestCacheFlushAndReset(t *testing.T) {
	c := MustCache("t", 1<<10, 2, 64)
	c.Access(0x40)
	c.ResetStats()
	if c.Accesses != 0 || c.Misses != 0 {
		t.Fatal("ResetStats did not clear counters")
	}
	if !c.Access(0x40) {
		t.Fatal("ResetStats lost cache contents")
	}
	c.Flush()
	if c.Access(0x40) {
		t.Fatal("Flush kept cache contents")
	}
}

func TestTLBBasics(t *testing.T) {
	tlb := MustTLB("t", 4, 4096)
	if tlb.Access(0x1000) {
		t.Fatal("cold TLB hit")
	}
	if !tlb.Access(0x1fff) {
		t.Fatal("same-page access missed")
	}
	if tlb.Access(0x2000) {
		t.Fatal("different page hit")
	}
	// Fill beyond capacity: 4-entry TLB, touch 5 pages, first is evicted.
	tlb.Flush()
	for p := uint64(0); p < 5; p++ {
		tlb.Access(p * 4096)
	}
	if tlb.Access(0) {
		t.Fatal("LRU page survived over-capacity fill")
	}
}

func TestTLBRejectsBadGeometry(t *testing.T) {
	if _, err := NewTLB("bad", 0, 4096); err == nil {
		t.Fatal("accepted zero entries")
	}
	if _, err := NewTLB("bad", 4, 1000); err == nil {
		t.Fatal("accepted non-power-of-two page size")
	}
}

// Property: miss count never exceeds access count, and hit-after-fill holds
// for arbitrary addresses.
func TestCacheInvariantsProperty(t *testing.T) {
	f := func(seed uint64) bool {
		src := rng.New(seed)
		c := MustCache("t", 4<<10, 4, 64)
		for i := 0; i < 500; i++ {
			addr := uint64(src.Intn(1 << 16))
			c.Access(addr)
			if !c.Access(addr) { // immediate re-access must hit
				return false
			}
		}
		return c.Misses <= c.Accesses
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestBranchPredictorLearnsBias(t *testing.T) {
	bp := NewBranchPredictor(12, 256)
	// Always-taken branch at one PC: after warmup, no mispredictions.
	for i := 0; i < 100; i++ {
		bp.Predict(0x400000, true)
	}
	bp.ResetStats()
	for i := 0; i < 1000; i++ {
		bp.Predict(0x400000, true)
	}
	if bp.Mispredicted != 0 {
		t.Fatalf("biased branch mispredicted %d times after warmup", bp.Mispredicted)
	}
}

func TestBranchPredictorRandomIsHard(t *testing.T) {
	bp := NewBranchPredictor(12, 256)
	src := rng.New(99)
	for i := 0; i < 20000; i++ {
		bp.Predict(0x400000+uint64(i%16)*4, src.Bool(0.5))
	}
	rate := bp.MispredictRate()
	if rate < 0.35 || rate > 0.65 {
		t.Fatalf("random branches mispredict rate %v, want ~0.5", rate)
	}
}

func TestBranchPredictorBTB(t *testing.T) {
	bp := NewBranchPredictor(10, 16)
	// 16-entry BTB, 32 distinct taken branches that alias: persistent misses.
	for i := 0; i < 10; i++ {
		for pc := uint64(0); pc < 32; pc++ {
			bp.Predict(pc, true)
		}
	}
	if bp.BTBMisses == 0 {
		t.Fatal("aliasing taken branches produced no BTB misses")
	}
	if bp.BTBLookups != bp.Branches {
		t.Fatalf("all branches were taken: lookups %d != branches %d",
			bp.BTBLookups, bp.Branches)
	}
	// Single hot branch: after first insert, all hits.
	bp.Flush()
	for i := 0; i < 100; i++ {
		bp.Predict(0x40, true)
	}
	if bp.BTBMisses != 1 {
		t.Fatalf("hot branch BTB misses = %d, want 1", bp.BTBMisses)
	}
}

func TestBranchPredictorFlush(t *testing.T) {
	bp := NewBranchPredictor(10, 16)
	for i := 0; i < 50; i++ {
		bp.Predict(0x40, true)
	}
	bp.Flush()
	if bp.Branches != 0 || bp.BTBLookups != 0 {
		t.Fatal("Flush did not clear stats")
	}
	// After flush the first prediction at a previously-learned PC starts
	// from weakly-not-taken again, so a taken branch mispredicts.
	if bp.Predict(0x40, true) {
		t.Fatal("predictor retained state across Flush")
	}
}

func TestPrefetcherHelpsSequentialStreams(t *testing.T) {
	// Sequential sweep over 4x the cache: without prefetch every line
	// misses; with next-line prefetch roughly half the demand misses go
	// away (each miss pulls the next line in).
	plain := MustCache("p", 1<<10, 2, 64)
	pref := MustCache("q", 1<<10, 2, 64)
	pref.EnablePrefetcher()
	for addr := uint64(0); addr < 4<<10; addr += 64 {
		plain.Access(addr)
		pref.Access(addr)
	}
	if pref.Misses >= plain.Misses {
		t.Fatalf("prefetcher did not reduce sequential misses: %d vs %d",
			pref.Misses, plain.Misses)
	}
	if pref.Prefetches == 0 || pref.PrefetchMisses == 0 {
		t.Fatal("prefetcher issued no requests")
	}
	if pref.PrefetchUseful == 0 {
		t.Fatal("no prefetch was ever useful on a sequential stream")
	}
}

func TestPrefetcherNeutralOnRandomAccess(t *testing.T) {
	// Random far-apart accesses: prefetched next-lines are never used.
	src := rng.New(7)
	pref := MustCache("q", 1<<10, 2, 64)
	pref.EnablePrefetcher()
	for i := 0; i < 2000; i++ {
		pref.Access(uint64(src.Intn(1<<26)) &^ 63)
	}
	if pref.PrefetchUseful > pref.Prefetches/10 {
		t.Fatalf("random stream claims %d useful of %d prefetches",
			pref.PrefetchUseful, pref.Prefetches)
	}
}

func TestPrefetchStatsClearOnReset(t *testing.T) {
	c := MustCache("r", 1<<10, 2, 64)
	c.EnablePrefetcher()
	for addr := uint64(0); addr < 2048; addr += 64 {
		c.Access(addr)
	}
	c.ResetStats()
	if c.Prefetches != 0 || c.PrefetchMisses != 0 || c.PrefetchUseful != 0 {
		t.Fatal("ResetStats kept prefetch counters")
	}
	c.Flush()
	if c.Access(0) {
		t.Fatal("Flush kept contents")
	}
}

// TestPrefetchUsefulAfterFlush: a fill into an invalidated way must not
// clear the prefetch mark of a different, live line. On one 4-way set,
// lines 0 and 10 (and their prefetched successors 1 and 11) fill all
// four ways; after Flush, re-filling 10 then 20 reuses those ways, and
// the later demand hit on prefetched line 11 must count as useful.
func TestPrefetchUsefulAfterFlush(t *testing.T) {
	c := MustCache("f", 4*64, 4, 64)
	c.EnablePrefetcher()
	c.Access(0 * 64)
	c.Access(10 * 64)
	c.Flush()
	c.Access(10 * 64) // prefetches 11
	c.Access(20 * 64) // prefetches 21
	if !c.Access(11 * 64) {
		t.Fatal("prefetched line 11 missed")
	}
	if c.PrefetchUseful != 1 {
		t.Fatalf("PrefetchUseful = %d after a demand hit on prefetched line 11, want 1", c.PrefetchUseful)
	}
}

// refCache is the reference model Cache must match: a plain true-LRU
// cache that keeps each way's line, valid flag, prefetch flag and age
// stamp in separate slices and scans every way of the set, tag and age
// together, on every lookup.
type refCache struct {
	ways     int
	setMask  uint64
	line     []uint64
	valid    []bool
	pref     []bool
	age      []uint64
	clock    uint64
	prefetch bool

	accesses, misses, prefetches, prefetchMisses, useful uint64
}

func newRefCache(sets, ways int) *refCache {
	n := sets * ways
	return &refCache{ways: ways, setMask: uint64(sets - 1),
		line: make([]uint64, n), valid: make([]bool, n), pref: make([]bool, n), age: make([]uint64, n)}
}

// access looks up one line address (not a byte address).
func (r *refCache) access(line uint64) bool {
	hit := r.lookupFill(line, false)
	if !hit && r.prefetch {
		r.prefetches++
		if !r.lookupFill(line+1, true) {
			r.prefetchMisses++
		}
	}
	return hit
}

func (r *refCache) lookupFill(line uint64, prefetch bool) bool {
	r.clock++
	if !prefetch {
		r.accesses++
	}
	base := int(line&r.setMask) * r.ways
	victim, oldest := base, ^uint64(0)
	for i := base; i < base+r.ways; i++ {
		if r.valid[i] && r.line[i] == line {
			r.age[i] = r.clock
			if !prefetch {
				if r.pref[i] {
					r.useful++
				}
				r.pref[i] = false
			}
			return true
		}
		if !r.valid[i] {
			victim, oldest = i, 0
		} else if r.age[i] < oldest {
			victim, oldest = i, r.age[i]
		}
	}
	if !prefetch {
		r.misses++
	}
	r.line[victim], r.valid[victim], r.pref[victim], r.age[victim] = line, true, prefetch, r.clock
	return false
}

func (r *refCache) flush() {
	clear(r.valid)
	clear(r.pref)
	clear(r.age)
	r.clock = 0
	r.accesses, r.misses, r.prefetches, r.prefetchMisses, r.useful = 0, 0, 0, 0, 0
}

// TestCacheMatchesReferenceModel drives random line streams through
// Cache and refCache and requires the same hit or miss on every access
// and the same counters, with the prefetcher on and off and with Flush
// in mid-stream. The geometries are a 128-way fully-associative TLB, a
// 32-set 8-way L1 and the 512-set 12-way default LLC.
func TestCacheMatchesReferenceModel(t *testing.T) {
	const line = 64
	for _, g := range []struct{ sets, ways int }{{1, 128}, {32, 8}, {512, 12}} {
		for _, prefetch := range []bool{false, true} {
			for seed := uint64(1); seed <= 2; seed++ {
				c := MustCache("c", g.sets*g.ways*line, g.ways, line)
				ref := newRefCache(g.sets, g.ways)
				if prefetch {
					c.EnablePrefetcher()
					ref.prefetch = true
				}
				src := rng.New(seed)
				capLines := g.sets * g.ways
				var cur uint64
				for i := 0; i < 30000; i++ {
					switch p := src.Float64(); {
					case p < 0.0002:
						c.Flush()
						ref.flush()
						continue
					case p < 0.5: // near the last line: streams and reuse
						cur = (cur + uint64(src.Intn(9)) - 4) & (1<<40 - 1)
					case p < 0.85: // a working set twice the capacity
						cur = uint64(src.Intn(2 * capLines))
					default: // anywhere
						cur = uint64(src.Int63()) >> 23
					}
					got, want := c.Access(cur*line+uint64(src.Intn(line))), ref.access(cur)
					if got != want {
						t.Fatalf("%dx%d prefetch=%v seed=%d: access %d (line %d): hit=%v, reference %v",
							g.sets, g.ways, prefetch, seed, i, cur, got, want)
					}
				}
				if c.Accesses != ref.accesses || c.Misses != ref.misses ||
					c.Prefetches != ref.prefetches || c.PrefetchMisses != ref.prefetchMisses ||
					c.PrefetchUseful != ref.useful {
					t.Fatalf("%dx%d prefetch=%v seed=%d: counters %d/%d/%d/%d/%d, reference %d/%d/%d/%d/%d",
						g.sets, g.ways, prefetch, seed,
						c.Accesses, c.Misses, c.Prefetches, c.PrefetchMisses, c.PrefetchUseful,
						ref.accesses, ref.misses, ref.prefetches, ref.prefetchMisses, ref.useful)
				}
				if ref.misses == 0 || ref.misses == ref.accesses {
					t.Fatalf("%dx%d prefetch=%v seed=%d: degenerate stream, %d misses of %d",
						g.sets, g.ways, prefetch, seed, ref.misses, ref.accesses)
				}
			}
		}
	}
}
