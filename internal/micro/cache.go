// Package micro implements the microarchitectural substrate of the
// reproduction: set-associative caches, TLBs, a gshare branch predictor and
// a core model that turns abstract instruction-block descriptors into
// hardware event counts.
//
// The paper measured real Haswell hardware through Linux perf; we replace
// the silicon with structural models so that the 16 HPC features the
// detector consumes arise from actual cache/branch/TLB mechanics reacting
// to workload behaviour (footprints, strides, branch entropy), not from
// hand-painted numbers. See DESIGN.md for the substitution argument.
package micro

import "fmt"

// Cache is a set-associative cache with true-LRU replacement.
//
// Each set is a run of ways in one packed slice. A way's key is its line
// address plus one, so the zero value is an invalid way; its stamp is the
// access clock of its last touch shifted left one bit, with the low bit
// set while the line is resident because of a prefetch and has not yet
// been demanded. Stamps of valid ways are distinct and never zero, so the
// oldest stamp in a set is its least recently used way and an invalid way
// is older than every valid one. A line address of 2^64-1, possible only
// with one-byte lines, has no key; it does not occur in this model.
type Cache struct {
	name     string
	sets     int
	ways     int
	lineBits uint // log2(line size)
	setMask  uint64

	w     []way    // sets*ways, set by set
	mru   []uint32 // per set, the index in the set of its last-touched way
	clock uint64

	prefetchNext bool

	// Statistics since last Reset.
	Accesses uint64
	Misses   uint64
	// Prefetches counts next-line prefetch requests issued on demand
	// misses (when the prefetcher is enabled); PrefetchMisses counts the
	// subset that actually had to fill (were not already resident).
	// PrefetchUseful counts demand hits on prefetched lines, each line
	// counted on its first demand hit only.
	Prefetches     uint64
	PrefetchMisses uint64
	PrefetchUseful uint64
}

// way is one cache way; see Cache for the key and stamp encodings.
type way struct {
	key   uint64
	stamp uint64
}

// prefetchedBit marks a way filled by a prefetch and not yet demanded.
const prefetchedBit = 1

// NewCache builds a cache with the given total size, associativity, and
// line size, all in bytes. Size must be divisible by ways*lineSize and the
// resulting set count must be a power of two.
func NewCache(name string, size, ways, lineSize int) (*Cache, error) {
	if size <= 0 || ways <= 0 || lineSize <= 0 {
		return nil, fmt.Errorf("micro: cache %q: non-positive geometry", name)
	}
	if size%(ways*lineSize) != 0 {
		return nil, fmt.Errorf("micro: cache %q: size %d not divisible by ways*line %d",
			name, size, ways*lineSize)
	}
	sets := size / (ways * lineSize)
	if sets&(sets-1) != 0 {
		return nil, fmt.Errorf("micro: cache %q: set count %d not a power of two", name, sets)
	}
	if lineSize&(lineSize-1) != 0 {
		return nil, fmt.Errorf("micro: cache %q: line size %d not a power of two", name, lineSize)
	}
	lb := uint(0)
	for 1<<lb < lineSize {
		lb++
	}
	return &Cache{
		name:     name,
		sets:     sets,
		ways:     ways,
		lineBits: lb,
		setMask:  uint64(sets - 1),
		w:        make([]way, sets*ways),
		mru:      make([]uint32, sets),
	}, nil
}

// MustCache is NewCache that panics on configuration error; used for the
// fixed, known-good machine configurations in this package.
func MustCache(name string, size, ways, lineSize int) *Cache {
	c, err := NewCache(name, size, ways, lineSize)
	if err != nil {
		panic(err)
	}
	return c
}

// EnablePrefetcher turns on the next-line prefetcher: every demand miss
// also fills the sequentially next line, the dominant hardware prefetch
// policy for streaming access patterns.
func (c *Cache) EnablePrefetcher() { c.prefetchNext = true }

// Access looks up addr, fills on miss, and reports whether it hit.
func (c *Cache) Access(addr uint64) bool {
	line := addr >> c.lineBits
	hit := c.lookupFill(line, false)
	if !hit && c.prefetchNext {
		c.Prefetches++
		if !c.lookupFill(line+1, true) {
			c.PrefetchMisses++
		}
	}
	return hit
}

// lookupFill performs the set lookup and fill-on-miss for a line address.
// Demand accesses update the access/miss statistics; prefetch fills do
// not (they have their own counters at the call site).
//
// A hit probes the set's most recently used way first, which catches
// repeated touches of one line or page, then scans the keys alone. Only
// a miss reads the stamps: the victim is the last invalid way, else the
// least recently used one.
func (c *Cache) lookupFill(line uint64, prefetch bool) bool {
	c.clock++
	if !prefetch {
		c.Accesses++
	}
	key := line + 1
	set := int(line & c.setMask)
	ways := c.w[set*c.ways : (set+1)*c.ways]

	hit := int(c.mru[set])
	if ways[hit].key != key {
		hit = -1
		for i := range ways {
			if ways[i].key == key {
				hit = i
				break
			}
		}
	}
	if hit >= 0 {
		w := &ways[hit]
		if prefetch {
			w.stamp = c.clock<<1 | w.stamp&prefetchedBit
		} else {
			if w.stamp&prefetchedBit != 0 {
				c.PrefetchUseful++
			}
			w.stamp = c.clock << 1
		}
		c.mru[set] = uint32(hit)
		return true
	}

	if !prefetch {
		c.Misses++
	}
	victim, oldest := 0, ways[0].stamp
	for i := 1; i < len(ways); i++ {
		if s := ways[i].stamp; s <= oldest {
			victim, oldest = i, s
		}
	}
	stamp := c.clock << 1
	if prefetch {
		stamp |= prefetchedBit
	}
	ways[victim] = way{key: key, stamp: stamp}
	c.mru[set] = uint32(victim)
	return false
}

// Sets returns the number of sets.
func (c *Cache) Sets() int { return c.sets }

// Ways returns the associativity.
func (c *Cache) Ways() int { return c.ways }

// LineSize returns the line size in bytes.
func (c *Cache) LineSize() int { return 1 << c.lineBits }

// SizeBytes returns the total capacity in bytes.
func (c *Cache) SizeBytes() int { return c.sets * c.ways * c.LineSize() }

// MissRate returns Misses/Accesses, or 0 with no accesses.
func (c *Cache) MissRate() float64 {
	if c.Accesses == 0 {
		return 0
	}
	return float64(c.Misses) / float64(c.Accesses)
}

// ResetStats clears the access/miss counters but keeps cache contents,
// modelling a counter read-and-clear without disturbing the hierarchy.
func (c *Cache) ResetStats() {
	c.Accesses = 0
	c.Misses = 0
	c.Prefetches = 0
	c.PrefetchMisses = 0
	c.PrefetchUseful = 0
}

// Flush invalidates all lines and clears statistics (e.g. a fresh
// container/machine per measured sample).
func (c *Cache) Flush() {
	clear(c.w)
	clear(c.mru)
	c.clock = 0
	c.ResetStats()
}

// TLB is a fully-associative translation lookaside buffer over fixed-size
// pages with LRU replacement, reusing the cache machinery with one set.
type TLB struct {
	cache    *Cache
	pageBits uint
}

// NewTLB builds a TLB with the given number of entries and page size.
func NewTLB(name string, entries, pageSize int) (*TLB, error) {
	if entries <= 0 || pageSize <= 0 || pageSize&(pageSize-1) != 0 {
		return nil, fmt.Errorf("micro: tlb %q: bad geometry entries=%d page=%d", name, entries, pageSize)
	}
	// One set, `entries` ways, "line size" of one byte: we feed it page
	// numbers directly, so spatial locality inside a page maps to one tag.
	c, err := NewCache(name, entries, entries, 1)
	if err != nil {
		return nil, err
	}
	pb := uint(0)
	for 1<<pb < pageSize {
		pb++
	}
	return &TLB{cache: c, pageBits: pb}, nil
}

// MustTLB is NewTLB that panics on configuration error.
func MustTLB(name string, entries, pageSize int) *TLB {
	t, err := NewTLB(name, entries, pageSize)
	if err != nil {
		panic(err)
	}
	return t
}

// Access translates addr and reports whether the translation hit.
func (t *TLB) Access(addr uint64) bool {
	return t.cache.Access(addr >> t.pageBits)
}

// Accesses returns the number of lookups since the last reset.
func (t *TLB) Accesses() uint64 { return t.cache.Accesses }

// Misses returns the number of misses since the last reset.
func (t *TLB) Misses() uint64 { return t.cache.Misses }

// ResetStats clears counters, keeping TLB contents.
func (t *TLB) ResetStats() { t.cache.ResetStats() }

// Flush invalidates all entries.
func (t *TLB) Flush() { t.cache.Flush() }
