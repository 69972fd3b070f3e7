package main

// Inputs and their verification. Every field is datagen.Hurricane output
// (float32, generated from the seed argument); the program only ever
// sees its little-endian bytes. Distinct containers come from a few
// generated base fields: variant v of a base is the base with its first
// sample set to a value unique to v, so every variant is a different
// container (different digest, different store entry, a fresh codec
// pass) over the same Hurricane-shaped data.

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash/crc32"
	"math"
	"sync"

	"repro/internal/blocked"
	"repro/internal/codec"
	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/grid"
	"repro/internal/metrics"
)

const (
	// absBound is the error bound every container is compressed with.
	absBound = 1e-3
	// streams is the v3 container's interleaved sub-stream count.
	streams = 4
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

func checksum(b []byte) uint32 { return crc32.Checksum(b, castagnoli) }

// field is one generated base field.
type field struct {
	dims     []int
	slabRows int
	data     []float32
	raw      []byte // little-endian float32 samples
}

// genFields generates one Hurricane field per seed, two at a time.
func genFields(dims []int, slabRows int, seeds []int64) []*field {
	out := make([]*field, len(seeds))
	var wg sync.WaitGroup
	sem := make(chan struct{}, 2)
	for i, s := range seeds {
		i, s := i, s
		wg.Add(1)
		sem <- struct{}{}
		go func() {
			defer wg.Done()
			defer func() { <-sem }()
			a := datagen.Hurricane(dims[0], dims[1], dims[2], s)
			f := &field{dims: dims, slabRows: slabRows, data: make([]float32, len(a.Data)), raw: make([]byte, 4*len(a.Data))}
			for j, v := range a.Data {
				f.data[j] = float32(v)
				binary.LittleEndian.PutUint32(f.raw[4*j:], math.Float32bits(float32(v)))
			}
			out[i] = f
		}()
	}
	wg.Wait()
	return out
}

// first returns variant v's first sample.
func (f *field) first(v int) float32 { return f.data[0] + 0.01*float32(v+1) }

// head returns variant v's first four raw bytes; the rest of the
// variant is f.raw[4:].
func (f *field) head(v int) []byte {
	var b [4]byte
	binary.LittleEndian.PutUint32(b[:], math.Float32bits(f.first(v)))
	return b[:]
}

func (f *field) rawBytes() int64 { return int64(len(f.raw)) }

func (f *field) numSlabs() int { return (f.dims[0] + f.slabRows - 1) / f.slabRows }

// slabBytes is the raw byte range of slab s.
func (f *field) slabBytes(s int) (lo, hi int) {
	row := 4 * f.dims[1] * f.dims[2]
	lo = s * f.slabRows * row
	hi = lo + f.slabRows*row
	if hi > len(f.raw) {
		hi = len(f.raw)
	}
	return lo, hi
}

// params is the codec configuration every container uses.
func (f *field) params() codec.Params {
	return codec.Params{
		Mode:     core.BoundAbs,
		AbsBound: absBound,
		DType:    grid.Float32,
		Dims:     f.dims,
		SlabRows: f.slabRows,
		Streams:  streams,
	}
}

func (f *field) blockedParams(workers int) blocked.Params {
	return blocked.Params{
		Core:     core.Params{Mode: core.BoundAbs, AbsBound: absBound, OutputType: grid.Float32, Streams: streams},
		SlabRows: f.slabRows,
		Workers:  workers,
	}
}

// container is one stored container with what it encodes.
type container struct {
	base    *field
	variant int
	digest  string
	bytes   []byte
}

func (c *container) String() string { return fmt.Sprintf("container %.12s", c.digest) }

// reference is a container decoded locally, checked against its
// original once: outputs served by the fleet are compared with it by
// length and checksum.
type reference struct {
	n       int // decoded bytes
	whole   uint32
	slabs   []uint32
	maxErr  float64   // max |x−x̃| / bound over the container
	slabErr []float64 // the same per slab
	err     error
}

// references decodes containers lazily, once each, for verification;
// safe for concurrent use.
type references struct {
	mu   sync.Mutex
	refs map[*container]*lazyRef
}

type lazyRef struct {
	once sync.Once
	ref  *reference
}

func newReferences() *references { return &references{refs: map[*container]*lazyRef{}} }

func (r *references) get(c *container) *reference {
	r.mu.Lock()
	l, ok := r.refs[c]
	if !ok {
		l = &lazyRef{}
		r.refs[c] = l
	}
	r.mu.Unlock()
	l.once.Do(func() { l.ref = decodeReference(c) })
	return l.ref
}

func decodeReference(c *container) *reference {
	f := c.base
	arr, err := blocked.Decompress(c.bytes, blocked.Params{})
	if err != nil {
		return &reference{err: fmt.Errorf("%v: local decode: %w", c, err)}
	}
	var buf bytes.Buffer
	if err := arr.WriteRaw(&buf, grid.Float32); err != nil {
		return &reference{err: err}
	}
	raw := buf.Bytes()
	ref := &reference{n: len(raw), whole: checksum(raw)}
	if len(raw) != len(f.raw) {
		ref.err = fmt.Errorf("%v: decoded %d bytes, want %d", c, len(raw), len(f.raw))
		return ref
	}
	for s := 0; s < f.numSlabs(); s++ {
		lo, hi := f.slabBytes(s)
		ref.slabs = append(ref.slabs, checksum(raw[lo:hi]))
		orig := samples(f.raw[lo:hi])
		if s == 0 {
			orig[0] = float64(f.first(c.variant))
		}
		e := metrics.MaxAbsError(orig, samples(raw[lo:hi])) / absBound
		ref.slabErr = append(ref.slabErr, e)
		ref.maxErr = math.Max(ref.maxErr, e)
	}
	if ref.maxErr > 1 {
		ref.err = fmt.Errorf("%v: max error %.6g× the bound", c, ref.maxErr)
	}
	return ref
}

// samples decodes little-endian float32 bytes.
func samples(raw []byte) []float64 {
	out := make([]float64, len(raw)/4)
	for i := range out {
		out[i] = float64(math.Float32frombits(binary.LittleEndian.Uint32(raw[4*i:])))
	}
	return out
}

// checkWhole verifies a whole-field output by length and checksum.
func (r *references) checkWhole(c *container, n int, sum uint32) (float64, error) {
	ref := r.get(c)
	if ref.err != nil {
		return 0, ref.err
	}
	if n != ref.n || sum != ref.whole {
		return 0, fmt.Errorf("%v: decompress returned %d bytes that differ from the %d-byte reference", c, n, ref.n)
	}
	return ref.maxErr, nil
}

// checkSlab verifies raw slab s by length and checksum.
func (r *references) checkSlab(c *container, s, n int, sum uint32) (float64, error) {
	ref := r.get(c)
	if ref.err != nil {
		return 0, ref.err
	}
	lo, hi := c.base.slabBytes(s)
	if n != hi-lo || sum != ref.slabs[s] {
		return 0, fmt.Errorf("%v slab %d: got %d bytes that differ from the %d-byte reference", c, s, n, hi-lo)
	}
	return ref.slabErr[s], nil
}

func sha256Hex(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}
