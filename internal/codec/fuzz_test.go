package codec

import (
	"bytes"
	"io"
	"runtime"
	"testing"

	"repro/internal/grid"
)

// fuzzAllocBase and fuzzAllocPerByte bound what one decode attempt may
// allocate: a fixed allowance plus a generous expansion of the input
// (gzip's ratio tops out near 1032:1, and the raw output is built more
// than once). A header that talks a decoder into sizing buffers from
// its own unchecked claims blows through it.
const (
	fuzzAllocBase    = 256 << 20
	fuzzAllocPerByte = 16 << 10
)

// FuzzAllDecoders feeds streams of every registered codec — valid,
// truncated and bit-flipped — through Detect and the detected codec's
// one-shot Decode and streaming reader. None may panic or hang, and an
// attempt may allocate only within fuzzAllocBase + fuzzAllocPerByte per
// input byte; an allocation too large to succeed at all shows up as a
// crash instead. Keep -parallel small, since every worker may use that
// much.
func FuzzAllDecoders(f *testing.F) {
	a := testArray()
	p := testParams(a, grid.Float32)
	for _, name := range Names() {
		stream, err := Encode(name, a, p)
		if err != nil {
			f.Fatalf("%s: %v", name, err)
		}
		f.Add(stream)
		f.Add(stream[:len(stream)/2])
		f.Add(stream[:len(stream)-1])
		flipped := bytes.Clone(stream)
		flipped[len(flipped)*2/3] ^= 0x10
		f.Add(flipped)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		c, err := Detect(data)
		if err != nil {
			return
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if out, err := c.Decode(data, p); err == nil && out == nil {
			t.Fatalf("%s: nil array without error", c.Name())
		}
		if r, err := c.NewReader(bytes.NewReader(data), p); err == nil {
			io.Copy(io.Discard, r)
			r.Close()
		}
		runtime.ReadMemStats(&after)
		if got, limit := after.TotalAlloc-before.TotalAlloc, uint64(fuzzAllocBase+fuzzAllocPerByte*len(data)); got > limit {
			t.Fatalf("%s: decoding %d bytes allocated %d, over %d", c.Name(), len(data), got, limit)
		}
	})
}
