package server

import (
	"bytes"
	"io"
	"net/http"
	"testing"

	"repro/internal/api"
	"repro/internal/codec"
	"repro/internal/grid"
)

// contractHeaders are the response headers a read's contract fixes:
// which bytes came back and how to interpret them. X-Sz-Store (which
// tier served) and the per-request trace headers are deliberately not
// among them.
var contractHeaders = []string{
	"Content-Type",
	api.HeaderCodec,
	api.HeaderDims,
	api.HeaderDtype,
	api.HeaderSlabs,
	api.HeaderSlabLengths,
	"Vary",
}

// readResult is the comparable part of one read response.
type readResult struct {
	status int
	body   []byte
	etag   string
	header map[string]string
}

func doRead(t *testing.T, method, url string, body []byte, accept, inm string) readResult {
	t.Helper()
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		t.Fatal(err)
	}
	if accept != "" {
		req.Header.Set("Accept", accept)
	}
	if inm != "" {
		req.Header.Set("If-None-Match", inm)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	res := readResult{status: resp.StatusCode, body: readAllClose(t, resp), header: map[string]string{}}
	// Streaming responses settle the ETag as a trailer, buffered ones
	// as a header; the contract is the value, not where it rides.
	res.etag = resp.Header.Get("Etag")
	if res.etag == "" {
		res.etag = resp.Trailer.Get("Etag")
	}
	for _, h := range contractHeaders {
		res.header[h] = resp.Header.Get(h)
	}
	return res
}

// TestBodyAndDigestReadsAgree: every read endpoint must answer a
// request that carries the container as its body exactly as it
// answers the same request naming the container by ?digest= — same
// status, bytes, ETag and contract headers — on a per-slab-codebook
// container and a shared-codebook one, with and without an extent
// Accept and a matching If-None-Match.
func TestBodyAndDigestReadsAgree(t *testing.T) {
	_, base, st := newStoreDaemon(t, 0)
	raw, _ := makeRaw(t, grid.Float32, 16, 20, 12)
	containers := []struct {
		name string
		p    codec.Params
	}{
		{"per-slab", codec.Params{AbsBound: 1e-3, DType: grid.Float32, Dims: []int{16, 20, 12}, SlabRows: 4}},
		{"shared", codec.Params{AbsBound: 1e-3, DType: grid.Float32, Dims: []int{16, 20, 12}, SlabRows: 4, SharedCodebook: true}},
	}
	endpoints := []struct {
		name, path, bodyMethod string
	}{
		{"decompress", api.PathDecompress, http.MethodPost},
		{"slabs", api.PathSlabs, http.MethodPost},
		{"slab", api.PathSlabPrefix + "1", http.MethodPost},
		{"slab-range", api.PathSlabPrefix + "1-2", http.MethodPost},
	}
	for _, ctr := range containers {
		stream := localStream(t, "blocked", raw, ctr.p)
		digest, err := st.Put(stream)
		if err != nil {
			t.Fatal(err)
		}
		si, err := codec.SlabIndexOf(stream)
		if err != nil {
			t.Fatal(err)
		}
		if si.SharedCodebook != ctr.p.SharedCodebook {
			t.Fatalf("%s: container shared codebook = %v", ctr.name, si.SharedCodebook)
		}
		etag := etagFor(digest)
		for _, ep := range endpoints {
			for _, accept := range []string{"", api.MediaTypeSlabExtent} {
				for _, inm := range []string{"", etag} {
					name := ctr.name + "/" + ep.name
					if accept != "" {
						name += "/extent"
					}
					if inm != "" {
						name += "/if-none-match"
					}
					body := doRead(t, ep.bodyMethod, base+ep.path, stream, accept, inm)
					byDigest := doRead(t, http.MethodGet, base+ep.path+"?digest="+digest, nil, accept, inm)

					if ep.name == "decompress" && inm != "" {
						// The one documented divergence: a body decompress
						// streams the container through the decoder and
						// learns its digest only after the last byte, so
						// it cannot answer 304; the digest names the bytes
						// up front.
						if body.status != http.StatusOK || body.etag != etag {
							t.Errorf("%s: body status %d etag %q, want 200 %q", name, body.status, body.etag, etag)
						}
						if byDigest.status != http.StatusNotModified {
							t.Errorf("%s: digest status %d, want 304", name, byDigest.status)
						}
						continue
					}

					if body.status != byDigest.status {
						t.Errorf("%s: status body %d, digest %d (%s | %s)", name, body.status, byDigest.status, body.body, byDigest.body)
						continue
					}
					want := http.StatusOK
					if inm != "" {
						want = http.StatusNotModified
					}
					if body.status != want {
						t.Errorf("%s: status %d, want %d", name, body.status, want)
					}
					if !bytes.Equal(body.body, byDigest.body) {
						t.Errorf("%s: body %d bytes, digest %d bytes", name, len(body.body), len(byDigest.body))
					}
					if body.etag != etag || byDigest.etag != etag {
						t.Errorf("%s: ETag body %q, digest %q, want %q", name, body.etag, byDigest.etag, etag)
					}
					for _, h := range contractHeaders {
						if body.header[h] != byDigest.header[h] {
							t.Errorf("%s: %s body %q, digest %q", name, h, body.header[h], byDigest.header[h])
						}
					}
					// A slab response's representation depends on Accept,
					// so caches must key on it.
					if ep.name == "slab" || ep.name == "slab-range" {
						if v := byDigest.header["Vary"]; v != "Accept" {
							t.Errorf("%s: Vary %q, want Accept", name, v)
						}
					}
					// An extent is served only where it is self-contained.
					extent := body.header["Content-Type"] == api.MediaTypeSlabExtent
					if want := accept != "" && !ctr.p.SharedCodebook && body.status == http.StatusOK && ep.name != "decompress" && ep.name != "slabs"; extent != want {
						t.Errorf("%s: served extent = %v, want %v", name, extent, want)
					}
				}
			}
		}
	}
}
