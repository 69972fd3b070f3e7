package grid

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNewAndIndexing2D(t *testing.T) {
	a := New(3, 4)
	if a.Len() != 12 || a.NDims() != 2 {
		t.Fatalf("Len=%d NDims=%d", a.Len(), a.NDims())
	}
	v := 0.0
	for i := 0; i < 3; i++ {
		for j := 0; j < 4; j++ {
			a.Set(v, i, j)
			v++
		}
	}
	// Row-major: element (i,j) at i*4+j.
	for i := 0; i < 3; i++ {
		for j := 0; j < 4; j++ {
			if got, want := a.At(i, j), float64(i*4+j); got != want {
				t.Fatalf("At(%d,%d)=%v want %v", i, j, got, want)
			}
			if a.Index(i, j) != i*4+j {
				t.Fatalf("Index(%d,%d)=%d", i, j, a.Index(i, j))
			}
		}
	}
}

func TestStrides(t *testing.T) {
	a := New(2, 3, 5)
	s := a.Strides()
	want := []int{15, 5, 1}
	for i := range want {
		if s[i] != want[i] {
			t.Fatalf("Strides=%v want %v", s, want)
		}
	}
}

func TestCoordRoundTrip(t *testing.T) {
	a := New(3, 5, 7)
	for idx := 0; idx < a.Len(); idx++ {
		c := a.Coord(idx)
		if a.Index(c...) != idx {
			t.Fatalf("Coord/Index mismatch at %d: coord %v", idx, c)
		}
	}
}

func TestCoordRoundTripQuick(t *testing.T) {
	f := func(d1, d2, d3 uint8, pick uint16) bool {
		dims := []int{int(d1%7) + 1, int(d2%7) + 1, int(d3%7) + 1}
		a := New(dims...)
		idx := int(pick) % a.Len()
		return a.Index(a.Coord(idx)...) == idx
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestRange(t *testing.T) {
	a := New(5)
	copy(a.Data, []float64{3, -2, 7, 0, 1})
	min, max, rng := a.Range()
	if min != -2 || max != 7 || rng != 9 {
		t.Fatalf("Range = (%v,%v,%v)", min, max, rng)
	}
}

func TestRangeIgnoresNaN(t *testing.T) {
	a := New(4)
	copy(a.Data, []float64{math.NaN(), 1, 5, math.NaN()})
	min, max, rng := a.Range()
	if min != 1 || max != 5 || rng != 4 {
		t.Fatalf("Range = (%v,%v,%v)", min, max, rng)
	}
}

func TestRangeAllNaN(t *testing.T) {
	a := New(2)
	a.Data[0] = math.NaN()
	a.Data[1] = math.NaN()
	min, max, rng := a.Range()
	if min != 0 || max != 0 || rng != 0 {
		t.Fatalf("all-NaN Range = (%v,%v,%v)", min, max, rng)
	}
}

func TestFromDataValidation(t *testing.T) {
	if _, err := FromData(make([]float64, 5), 2, 3); err == nil {
		t.Fatal("expected length mismatch error")
	}
	a, err := FromData([]float64{1, 2, 3, 4, 5, 6}, 2, 3)
	if err != nil {
		t.Fatal(err)
	}
	if a.At(1, 2) != 6 {
		t.Fatalf("At(1,2)=%v", a.At(1, 2))
	}
}

func TestFloat32RoundTrip(t *testing.T) {
	src := []float32{1.5, -2.25, 3.75, 0}
	a, err := FromFloat32s(src, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	back := a.Float32s()
	for i := range src {
		if back[i] != src[i] {
			t.Fatalf("float32 round trip: %v vs %v", back, src)
		}
	}
}

func TestCloneIndependence(t *testing.T) {
	a := New(2, 2)
	a.Set(1, 0, 0)
	b := a.Clone()
	b.Set(99, 0, 0)
	if a.At(0, 0) != 1 {
		t.Fatal("Clone shares storage")
	}
	if !a.Equal(a.Clone()) {
		t.Fatal("Equal(clone) = false")
	}
}

func TestEqualShapeMismatch(t *testing.T) {
	if New(2, 3).Equal(New(3, 2)) {
		t.Fatal("different shapes reported equal")
	}
	if New(2).Equal(New(2, 1)) {
		t.Fatal("different ndims reported equal")
	}
}

func TestWriteReadRaw(t *testing.T) {
	for _, dt := range []DType{Float32, Float64} {
		a := New(3, 4)
		rng := rand.New(rand.NewSource(42))
		for i := range a.Data {
			a.Data[i] = float64(float32(rng.NormFloat64() * 100))
		}
		var buf bytes.Buffer
		if err := a.WriteRaw(&buf, dt); err != nil {
			t.Fatal(err)
		}
		if buf.Len() != a.Len()*dt.Size() {
			t.Fatalf("%v: wrote %d bytes, want %d", dt, buf.Len(), a.Len()*dt.Size())
		}
		b, err := ReadRaw(&buf, dt, 3, 4)
		if err != nil {
			t.Fatal(err)
		}
		if !a.Equal(b) {
			t.Fatalf("%v: raw round trip mismatch", dt)
		}
	}
}

// failWriter accepts limit bytes, then fails.
type failWriter struct {
	n, limit int
	err      error
}

func (f *failWriter) Write(p []byte) (int, error) {
	if f.n+len(p) > f.limit {
		return 0, f.err
	}
	f.n += len(p)
	return len(p), nil
}

// TestWriteRawMatchesPerElement checks WriteRaw's chunked conversion
// against a plain per-element little-endian encoding, on lengths that
// end before, on and after its chunk boundaries, for both widths —
// NaN, ±Inf, −0 and values that round when narrowed included.
func TestWriteRawMatchesPerElement(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	special := []float64{math.NaN(), math.Inf(1), math.Inf(-1), math.Copysign(0, -1), 1 + 1e-12, math.MaxFloat64}
	for _, dt := range []DType{Float32, Float64} {
		per := rawChunk / dt.Size()
		for _, n := range []int{1, 7, per - 1, per, per + 1, 2*per + 3} {
			a := New(n)
			for i := range a.Data {
				a.Data[i] = rng.NormFloat64() * 1e3
				if i%97 == 0 {
					a.Data[i] = special[(i/97)%len(special)]
				}
			}
			want := make([]byte, 0, n*dt.Size())
			for _, v := range a.Data {
				if dt == Float32 {
					want = binary.LittleEndian.AppendUint32(want, math.Float32bits(float32(v)))
				} else {
					want = binary.LittleEndian.AppendUint64(want, math.Float64bits(v))
				}
			}
			var buf bytes.Buffer
			if err := a.WriteRaw(&buf, dt); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(buf.Bytes(), want) {
				t.Fatalf("%v n=%d: WriteRaw bytes differ from the per-element encoding", dt, n)
			}
		}
	}
}

// TestWriteRawPropagatesWriterError checks a failing writer's error
// comes back, on the first write and after some chunks went through.
func TestWriteRawPropagatesWriterError(t *testing.T) {
	boom := errors.New("boom")
	a := New(3 * rawChunk / 4)
	for _, limit := range []int{0, rawChunk} {
		w := &failWriter{limit: limit, err: boom}
		if err := a.WriteRaw(w, Float32); err != boom {
			t.Fatalf("limit %d: err %v, want %v", limit, err, boom)
		}
	}
	if err := a.WriteRaw(io.Discard, DType(9)); err == nil {
		t.Fatal("unknown dtype accepted")
	}
}

func TestReadRawShortInput(t *testing.T) {
	if _, err := ReadRaw(bytes.NewReader(make([]byte, 7)), Float64, 2); err == nil {
		t.Fatal("expected error on short input")
	}
}

func TestSameShape(t *testing.T) {
	if err := SameShape(New(2, 3), New(2, 3)); err != nil {
		t.Fatal(err)
	}
	if err := SameShape(New(2, 3), New(3, 2)); err == nil {
		t.Fatal("expected shape error")
	}
}

func TestSlab(t *testing.T) {
	a := New(4, 3)
	for i := range a.Data {
		a.Data[i] = float64(i)
	}
	s, err := a.Slab(1, 3)
	if err != nil {
		t.Fatal(err)
	}
	if s.Dims[0] != 2 || s.Dims[1] != 3 {
		t.Fatalf("slab dims %v", s.Dims)
	}
	if s.At(0, 0) != 3 || s.At(1, 2) != 8 {
		t.Fatalf("slab values: %v", s.Data)
	}
	// Shares storage.
	s.Set(-1, 0, 0)
	if a.At(1, 0) != -1 {
		t.Fatal("slab does not share storage")
	}
	if _, err := a.Slab(2, 2); err == nil {
		t.Fatal("expected empty-slab error")
	}
	if _, err := a.Slab(-1, 2); err == nil {
		t.Fatal("expected range error")
	}
}

func TestPanics(t *testing.T) {
	mustPanic := func(name string, f func()) {
		defer func() {
			if recover() == nil {
				t.Fatalf("%s: expected panic", name)
			}
		}()
		f()
	}
	mustPanic("zero dim", func() { New(0, 3) })
	mustPanic("no dims", func() { New() })
	mustPanic("too many dims", func() { New(1, 1, 1, 1, 1) })
	a := New(2, 2)
	mustPanic("bad coord count", func() { a.At(1) })
	mustPanic("coord out of range", func() { a.At(2, 0) })
	mustPanic("flat out of range", func() { a.Coord(4) })
}

func TestDTypeString(t *testing.T) {
	if Float32.String() != "float32" || Float64.String() != "float64" {
		t.Fatal("DType String mismatch")
	}
	if DType(9).Size() != 0 {
		t.Fatal("unknown dtype should have size 0")
	}
}
