package experiments

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"io"
	"math"
	"testing"

	"repro/internal/dataset"
)

// goldenIDs are the reports of one cold paper pipeline, Table 1 through
// Fig 19, in the order `hpcmal repro` prints them.
var goldenIDs = []string{"table1", "table2", "fig13", "fig14", "fig15", "fig16", "fig17", "fig18", "fig19"}

// goldenTableHash is the SHA-256 of the seed-1, scale-0.02 dataset.
const goldenTableHash = "915e01d385e41ab25f1dfcffe0b071e42fd946da5e846669b77d258e53a00708"

// goldenReportHashes are the SHA-256 sums of the rendered reports of that
// dataset's Runner.
var goldenReportHashes = map[string]string{
	"table1": "1c48b1abddf940aafbb0c059d4e35ea52262a4c35819a5deb37eec7dfb0c9ba1",
	"table2": "5dd7e71ced688856a9f5e37f5a0fbd9d4d7e9dd184a24ef9e9f15fe8ea733e50",
	"fig13":  "c062cfda2ff49544aceea6ad45db3ac291e7703673fa6a6c16e28b5abd560f9e",
	"fig14":  "ae69edec72634462162bb5452c63f54875eb2604177641bbf02d3741f8dc2186",
	"fig15":  "72d719ef2e1d5ccd37a5cdfb0b5cb3f01a0a289ad8215d7695b46702253199eb",
	"fig16":  "e2fb394b1dba4c214b4e3ab8b18e0f07972d5c9981cd1f696f91647bc7e27869",
	"fig17":  "f7fd5b5896e47e555f69ac51f846f0e31dd69dff313a2ca6cf22f5ab8c2f9489",
	"fig18":  "a2c5581ccf3567e8f940cb7c3f158a3b970a96ff43d1f89545d9502b3e99dc0d",
	"fig19":  "295e1a64610640f9677d914a1db08289cf21af8d8e00446c5fdf12564a7d4dc2",
}

// tableHash is a SHA-256 over a table's attributes and every row's
// feature bits, class and sample id.
func tableHash(t *dataset.Table) string {
	h := sha256.New()
	for _, a := range t.Attributes {
		io.WriteString(h, a+"\n")
	}
	var buf [8]byte
	for _, in := range t.Instances {
		for _, v := range in.Features {
			binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
			h.Write(buf[:])
		}
		binary.LittleEndian.PutUint64(buf[:], uint64(in.Class)<<32|uint64(uint32(in.SampleID)))
		h.Write(buf[:])
	}
	return hex.EncodeToString(h.Sum(nil))
}

// renderHash runs one report and hashes its rendering.
func renderHash(t *testing.T, r *Runner, id string) string {
	t.Helper()
	rep, err := r.Run(id)
	if err != nil {
		t.Fatalf("%s: %v", id, err)
	}
	var buf bytes.Buffer
	if err := rep.Render(&buf); err != nil {
		t.Fatalf("%s: render: %v", id, err)
	}
	sum := sha256.Sum256(buf.Bytes())
	return hex.EncodeToString(sum[:])
}

// TestGoldenPipeline pins the paper pipeline byte for byte: the dataset
// of seed 1 at scale 0.02 with the paper's trace parameters, and every
// report rendered from it. A second Runner runs the reports in reverse
// order, so no report may depend on which report ran before it.
func TestGoldenPipeline(t *testing.T) {
	if testing.Short() {
		t.Skip("generates a full-trace dataset")
	}
	r := NewRunner(WithSeed(1), WithScale(0.02))
	tbl, err := r.Dataset()
	if err != nil {
		t.Fatal(err)
	}
	if got := tableHash(tbl); got != goldenTableHash {
		t.Errorf("dataset hash %s, want %s", got, goldenTableHash)
	}
	for _, id := range goldenIDs {
		if got := renderHash(t, r, id); got != goldenReportHashes[id] {
			t.Errorf("%s: report hash %s, want %s", id, got, goldenReportHashes[id])
		}
	}

	rev := NewRunner(WithSeed(1), WithScale(0.02))
	for i := len(goldenIDs) - 1; i >= 0; i-- {
		id := goldenIDs[i]
		if got := renderHash(t, rev, id); got != goldenReportHashes[id] {
			t.Errorf("%s (reverse order): report hash %s, want %s", id, got, goldenReportHashes[id])
		}
	}
}
