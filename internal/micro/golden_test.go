package micro

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"
)

// goldenBlocks is a fixed ExecuteBlock sequence that drives every
// structure of the machine: sequential and random data, a streaming
// secondary region, page-stride accesses for the TLBs, far code jumps for
// the iTLB and L1I, and a Reset in the middle so the flush path is part
// of the pinned behaviour.
func goldenBlocks() []struct {
	b     Block
	n     int
	reset bool
} {
	stream := smallBlock()
	stream.DataFootprint = 1 << 20
	stream.DataRandomFrac = 0
	stream.RemoteFrac = 0.3
	stream.RemoteFootprint = 4 << 20

	random := smallBlock()
	random.DataFootprint = 512 << 10
	random.DataRandomFrac = 0.9

	code := smallBlock()
	code.CodeFootprint = 256 << 10
	code.CodeJumpFrac = 0.3
	code.BranchEntropy = 0.7

	pages := smallBlock()
	pages.DataFootprint = 2 << 20
	pages.DataStride = 4096
	pages.DataRandomFrac = 0

	return []struct {
		b     Block
		n     int
		reset bool
	}{
		{smallBlock(), 20000, false},
		{stream, 30000, false},
		{random, 30000, false},
		{code, 30000, false},
		{smallBlock(), 20000, true},
		{pages, 30000, false},
		{stream, 20000, false},
	}
}

// goldenCountsHash runs goldenBlocks on a fresh machine and hashes every
// block's Counts, field by field.
func goldenCountsHash(t *testing.T, cfg Config) string {
	t.Helper()
	m := NewMachine(cfg, 7)
	h := sha256.New()
	for i, g := range goldenBlocks() {
		if g.reset {
			m.Reset()
		}
		c, err := m.ExecuteBlock(g.b, g.n)
		if err != nil {
			t.Fatalf("block %d: %v", i, err)
		}
		fmt.Fprintf(h, "%d %+v\n", i, c)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestGoldenCounts pins the exact event counts of a fixed block sequence
// on both machine configurations. The scaled default machine is the one
// the dataset is built on; the Haswell machine's 128- and 64-entry TLBs
// exercise wide fully-associative lookups that the dataset never runs.
// Any change to the cache, TLB, predictor or core model that moves a
// single count changes these hashes.
func TestGoldenCounts(t *testing.T) {
	for _, tc := range []struct {
		cfg  Config
		want string
	}{
		{DefaultConfig(), "5fa4fd4b6b84c4efca411649e7d33ef3a067c9500d0945c5f2c7db9d2e4d8451"},
		{HaswellConfig(), "217b020aab36b1993e9e0499b1eba6689056b45898994f85851df06f208cfb87"},
	} {
		if got := goldenCountsHash(t, tc.cfg); got != tc.want {
			t.Errorf("%s: counts hash %s, want %s", tc.cfg.Name, got, tc.want)
		}
	}
}
