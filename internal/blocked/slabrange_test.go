package blocked

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"io"
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/grid"
	"repro/internal/scratch"
)

func TestDecompressSlabRange(t *testing.T) {
	a := grid.New(18, 6, 6) // 18 rows, 4-row slabs -> 5 slabs, ragged tail
	for i := range a.Data {
		a.Data[i] = math.Cos(float64(i) * 0.03)
	}
	p := Params{Core: core.Params{Mode: core.BoundAbs, AbsBound: 1e-3}, SlabRows: 4}
	stream, _, err := Compress(a, p)
	if err != nil {
		t.Fatal(err)
	}
	full, err := Decompress(stream, Params{})
	if err != nil {
		t.Fatal(err)
	}
	ix, err := Inspect(stream)
	if err != nil {
		t.Fatal(err)
	}
	ns := ix.NumSlabs()
	if ns != 5 {
		t.Fatalf("%d slabs, want 5", ns)
	}

	for _, c := range [][2]int{{0, 0}, {1, 2}, {0, ns - 1}, {ns - 1, ns - 1}, {3, 4}} {
		arr, dt, err := DecompressSlabRange(stream, c[0], c[1])
		if err != nil {
			t.Fatalf("range %v: %v", c, err)
		}
		if dt != grid.Float64 {
			t.Fatalf("range %v: dtype %v", c, dt)
		}
		rowLo, _ := ix.SlabBounds(c[0])
		_, rowHi := ix.SlabBounds(c[1])
		if arr.Dims[0] != rowHi-rowLo {
			t.Fatalf("range %v: %d rows, want %d", c, arr.Dims[0], rowHi-rowLo)
		}
		want, err := full.Slab(rowLo, rowHi)
		if err != nil {
			t.Fatal(err)
		}
		for i, v := range arr.Data {
			if v != want.Data[i] {
				t.Fatalf("range %v: value %d differs: %g vs %g", c, i, v, want.Data[i])
			}
		}
	}

	for _, c := range [][2]int{{-1, 0}, {2, 1}, {0, ns}, {ns, ns}} {
		if _, _, err := DecompressSlabRange(stream, c[0], c[1]); err == nil {
			t.Errorf("range %v accepted, want error", c)
		}
	}
}

// TestSlabExtent: the compressed extent for slabs lo..hi must be a
// self-contained decodable byte range equal to the concatenation of
// those slabs' core streams, and decoding the extent must reproduce the
// same samples the full decode yields.
func TestSlabExtent(t *testing.T) {
	a := grid.New(18, 6, 6)
	for i := range a.Data {
		a.Data[i] = math.Sin(float64(i) * 0.05)
	}
	p := Params{Core: core.Params{Mode: core.BoundAbs, AbsBound: 1e-3}, SlabRows: 4}
	stream, _, err := Compress(a, p)
	if err != nil {
		t.Fatal(err)
	}
	ix, err := Inspect(stream)
	if err != nil {
		t.Fatal(err)
	}
	full, err := Decompress(stream, Params{})
	if err != nil {
		t.Fatal(err)
	}
	ns := ix.NumSlabs()
	for _, c := range [][2]int{{0, 0}, {1, 3}, {0, ns - 1}, {ns - 1, ns - 1}} {
		start, end, err := ix.SlabExtent(c[0], c[1])
		if err != nil {
			t.Fatalf("extent %v: %v", c, err)
		}
		if start < ix.HeaderLen || end > len(stream) || start > end {
			t.Fatalf("extent %v out of bounds: [%d,%d)", c, start, end)
		}
		// The extent is the exact concatenation of the range's core
		// streams; walk it slab by slab using the index lengths (what a
		// remote reader reconstructs from /v1/slabs slab_lengths).
		ext := stream[start:end]
		for i := c[0]; i <= c[1]; i++ {
			cur := ext[ix.Offsets[i]-ix.Offsets[c[0]] : ix.Offsets[i+1]-ix.Offsets[c[0]]]
			slab, h, err := core.Decompress(cur)
			if err != nil {
				t.Fatalf("extent %v slab %d: %v", c, i, err)
			}
			if h.DType != grid.Float64 {
				t.Fatalf("dtype %v", h.DType)
			}
			slo, shi := ix.SlabBounds(i)
			want, err := full.Slab(slo, shi)
			if err != nil {
				t.Fatal(err)
			}
			for j, v := range slab.Data {
				if v != want.Data[j] {
					t.Fatalf("extent %v slab %d sample %d: %g vs %g", c, i, j, v, want.Data[j])
				}
			}
		}
		if end-start != ix.Offsets[c[1]+1]-ix.Offsets[c[0]] {
			t.Fatalf("extent %v length %d, index says %d", c, end-start, ix.Offsets[c[1]+1]-ix.Offsets[c[0]])
		}
	}
	if _, _, err := ix.SlabExtent(0, ns); err == nil {
		t.Fatal("out-of-range extent accepted")
	}
}

// TestInspectNoVerifySkipsCRC: the no-verify inspect must parse the
// same index while tolerating a flipped bit in the body (which the
// CRC-checking Inspect rejects) — that is exactly the cost it skips.
func TestInspectNoVerifySkipsCRC(t *testing.T) {
	a := grid.New(12, 5, 5)
	for i := range a.Data {
		a.Data[i] = float64(i % 17)
	}
	stream, _, err := Compress(a, Params{Core: core.Params{Mode: core.BoundAbs, AbsBound: 1e-3}, SlabRows: 4})
	if err != nil {
		t.Fatal(err)
	}
	want, err := Inspect(stream)
	if err != nil {
		t.Fatal(err)
	}
	got, err := InspectNoVerify(stream)
	if err != nil {
		t.Fatal(err)
	}
	if got.NumSlabs() != want.NumSlabs() || got.HeaderLen != want.HeaderLen || got.Version != want.Version {
		t.Fatalf("index mismatch: %+v vs %+v", got, want)
	}
	for i := range want.Offsets {
		if got.Offsets[i] != want.Offsets[i] {
			t.Fatalf("offset %d: %d vs %d", i, got.Offsets[i], want.Offsets[i])
		}
	}

	bad := append([]byte(nil), stream...)
	bad[want.HeaderLen+3] ^= 1 // body bit flip: CRC breaks, footer intact
	if _, err := Inspect(bad); err == nil {
		t.Fatal("Inspect accepted corrupt body")
	}
	if _, err := InspectNoVerify(bad); err != nil {
		t.Fatalf("InspectNoVerify must skip the CRC: %v", err)
	}

	// Structural damage must still be rejected without the CRC.
	short := stream[:len(stream)-3]
	if _, err := InspectNoVerify(short); err == nil {
		t.Fatal("truncated container accepted")
	}
}

// TestSlabRankMismatchRejected: a 3-D container whose one slab carries a
// valid 4-D core stream ([rows,h,w,2], so more samples than the slab's
// output rows hold) must fail every decoder. The range decoder writes
// into a recycled buffer; accepting such a slab would hand back whatever
// samples an earlier decode left there.
func TestSlabRankMismatchRejected(t *testing.T) {
	const rows, h, w = 4, 3, 3
	a4 := grid.New(rows, h, w, 2)
	for i := range a4.Data {
		a4.Data[i] = math.Sin(float64(i) * 0.1)
	}
	slab, _, err := core.Compress(a4, core.Params{Mode: core.BoundAbs, AbsBound: 1e-3})
	if err != nil {
		t.Fatal(err)
	}
	c := append([]byte(nil), magicV2...)
	c = append(c, 3)
	for _, d := range []int{rows, h, w, rows} { // dims, then rows per slab
		c = binary.AppendUvarint(c, uint64(d))
	}
	c = append(c, slab...)
	foot := binary.AppendUvarint(nil, 1)
	foot = binary.AppendUvarint(foot, uint64(len(slab)))
	c = append(c, foot...)
	c = binary.LittleEndian.AppendUint32(c, uint32(len(foot)))
	c = binary.LittleEndian.AppendUint32(c, crc32.ChecksumIEEE(c))

	ix, err := Inspect(c)
	if err != nil {
		t.Fatalf("crafted container must pass Inspect: %v", err)
	}
	const marker = 12345.678
	for k := 0; k < 4; k++ {
		stale := scratch.Float64s(rows * h * w)
		for i := range stale {
			stale[i] = marker
		}
		scratch.PutFloat64s(stale)
	}
	if arr, _, err := DecompressSlabRangeIndexed(c, ix, 0, 0); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("DecompressSlabRangeIndexed: err %v, want ErrCorrupt (data %v)", err, arr)
	}
	if _, err := Decompress(c, Params{}); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("Decompress: err %v, want ErrCorrupt", err)
	}
	r, err := NewReader(bytes.NewReader(c))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := io.Copy(io.Discard, r); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("Reader: err %v, want ErrCorrupt", err)
	}
}
