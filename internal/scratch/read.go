package scratch

import "io"

// readChunk is the size of ReadCapped's pooled chunks.
const readChunk = 256 << 10

// ReadCapped returns what io.ReadAll(io.LimitReader(r, n)) returns: at
// most n bytes of r, with the first error other than io.EOF. It reads
// without regrowth copies: the bytes land in pooled fixed-size chunks
// that are copied once into a result of the final size. The result is
// freshly allocated, so callers may keep it.
func ReadCapped(r io.Reader, n int64) ([]byte, error) {
	lr := &io.LimitedReader{R: r, N: n}
	var chunks [][]byte
	total := 0
	var err error
	for {
		c := Bytes(readChunk)
		var m int
		var done bool
		m, done, err = fill(lr, c)
		chunks = append(chunks, c[:m])
		total += m
		if done || err != nil {
			break
		}
	}
	out := make([]byte, total)
	k := 0
	for _, c := range chunks {
		k += copy(out[k:], c)
		PutBytes(c)
	}
	return out, err
}

// fill reads from r until b is full, r reports io.EOF (done), or r
// fails (err, never io.EOF).
func fill(r io.Reader, b []byte) (n int, done bool, err error) {
	for n < len(b) {
		m, e := r.Read(b[n:])
		n += m
		if e == io.EOF {
			return n, true, nil
		}
		if e != nil {
			return n, false, e
		}
	}
	return n, false, nil
}
