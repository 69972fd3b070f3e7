package scratch

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"testing"
	"testing/iotest"
)

// errAfter yields data, then fails with err instead of io.EOF.
type errAfter struct {
	r   io.Reader
	err error
}

func (e *errAfter) Read(p []byte) (int, error) {
	n, err := e.r.Read(p)
	if err == io.EOF {
		return n, e.err
	}
	return n, err
}

// TestReadCappedMatchesReadAll checks ReadCapped against
// io.ReadAll(io.LimitReader(r, n)) — bytes and error — for empty bodies,
// bodies of exactly n and n+1 bytes, and bodies that fail mid-way, on
// lengths that straddle the chunk size.
func TestReadCappedMatchesReadAll(t *testing.T) {
	boom := errors.New("boom")
	payload := make([]byte, 3*readChunk+17)
	for i := range payload {
		payload[i] = byte(i*7 + i>>9)
	}
	type source func(b []byte) io.Reader
	sources := map[string]source{
		"plain":   func(b []byte) io.Reader { return bytes.NewReader(b) },
		"onebyte": func(b []byte) io.Reader { return iotest.OneByteReader(bytes.NewReader(b)) },
		"dataeof": func(b []byte) io.Reader { return iotest.DataErrReader(bytes.NewReader(b)) },
		"midfail": func(b []byte) io.Reader { return &errAfter{bytes.NewReader(b), boom} },
		"unexpeof": func(b []byte) io.Reader {
			return &errAfter{bytes.NewReader(b), io.ErrUnexpectedEOF}
		},
	}
	for _, n := range []int64{0, 1, 100, readChunk - 1, readChunk, readChunk + 1, 2*readChunk + 5} {
		for _, length := range []int64{0, n - 1, n, n + 1, n + readChunk} {
			if length < 0 {
				continue
			}
			body := payload[:length]
			for name, src := range sources {
				if name == "onebyte" && length > 4096 {
					continue // one byte a call: keep the test quick
				}
				want, wantErr := io.ReadAll(io.LimitReader(src(body), n))
				got, gotErr := ReadCapped(src(body), n)
				id := fmt.Sprintf("%s n=%d len=%d", name, n, length)
				if !bytes.Equal(got, want) || (got == nil) != (want == nil) {
					t.Fatalf("%s: got %d bytes, want %d", id, len(got), len(want))
				}
				if gotErr != wantErr {
					t.Fatalf("%s: err %v, want %v", id, gotErr, wantErr)
				}
			}
		}
	}
}

// TestReadCappedOwnsResult checks the result does not alias a pooled
// chunk: recycling and overwriting the pool's buffers leaves it intact.
func TestReadCappedOwnsResult(t *testing.T) {
	body := bytes.Repeat([]byte("sz"), readChunk)
	got, err := ReadCapped(bytes.NewReader(body), int64(len(body))+1)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		b := Bytes(readChunk)
		for j := range b {
			b[j] = 0xff
		}
		PutBytes(b)
	}
	if !bytes.Equal(got, body) {
		t.Fatal("result changed after the pool was reused")
	}
}
