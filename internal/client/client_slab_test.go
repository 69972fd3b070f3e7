package client

import (
	"bytes"
	"context"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/api"
	"repro/internal/blocked"
	"repro/internal/codec"
	"repro/internal/grid"
)

// TestSlabEndpointsViaClient: the client's random-access helpers must
// reproduce the library's local slab decode byte for byte.
func TestSlabEndpointsViaClient(t *testing.T) {
	ts := newDaemon(t)
	cl, err := New(ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	raw := makeRaw(t, grid.Float32, 16, 8, 8)
	p := codec.Params{AbsBound: 1e-3, DType: grid.Float32, Dims: []int{16, 8, 8}, SlabRows: 4}
	stream := localStream(t, "blocked", raw, p)
	ctx := context.Background()

	si, err := cl.SlabIndex(ctx, bytes.NewReader(stream), int64(len(stream)))
	if err != nil {
		t.Fatal(err)
	}
	if si.Slabs != 4 || si.SlabRows != 4 || si.DType != "float32" {
		t.Fatalf("slab index = %+v, want 4x4 float32", si)
	}

	for _, rng := range [][2]int{{0, 0}, {1, 2}, {0, 3}} {
		rc, err := cl.ReadSlab(ctx, bytes.NewReader(stream), int64(len(stream)), rng[0], rng[1])
		if err != nil {
			t.Fatalf("range %v: %v", rng, err)
		}
		got, err := io.ReadAll(rc)
		rc.Close()
		if err != nil {
			t.Fatal(err)
		}
		arr, dt, err := blocked.DecompressSlabRange(stream, rng[0], rng[1])
		if err != nil {
			t.Fatal(err)
		}
		var want bytes.Buffer
		if err := arr.WriteRaw(&want, dt); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want.Bytes()) {
			t.Fatalf("range %v: remote decode differs from local", rng)
		}
	}

	// Out-of-range surfaces the daemon's 416 as an api.Error.
	if _, err := cl.ReadSlab(ctx, bytes.NewReader(stream), int64(len(stream)), 7, 9); err == nil {
		t.Fatal("out-of-range slab read accepted")
	} else {
		var se *api.Error
		if !errors.As(err, &se) || se.Status != http.StatusRequestedRangeNotSatisfiable {
			t.Fatalf("error = %v, want a 416 api.Error", err)
		}
	}

	// Bad range is rejected client-side before any request.
	if _, err := cl.ReadSlab(ctx, bytes.NewReader(stream), -1, 2, 1); err == nil {
		t.Fatal("inverted range accepted")
	}
}

// TestRawSlabReadersRejectExtent: a raw slab reader that is answered
// with a compressed extent (a cache that ignored Accept) must fail
// instead of handing compressed bytes back as samples.
func TestRawSlabReadersRejectExtent(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.Copy(io.Discard, r.Body)
		w.Header().Set("Content-Type", api.MediaTypeSlabExtent)
		w.Header().Set("Etag", `"`+strings.Repeat("a", 64)+`"`)
		w.Write([]byte("compressed extent bytes"))
	}))
	defer ts.Close()
	cl, err := New(ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if rc, err := cl.ReadSlab(ctx, bytes.NewReader([]byte("container")), 9, 0, 0); err == nil {
		rc.Close()
		t.Error("ReadSlab accepted a compressed extent as raw samples")
	}
	if rc, err := cl.ReadSlabAt(ctx, strings.Repeat("a", 64), 0, 0); err == nil {
		rc.Close()
		t.Error("ReadSlabAt accepted a compressed extent as raw samples")
	}
}
