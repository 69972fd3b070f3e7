package fleet

import (
	"bytes"
	"context"
	"net/http"
	"testing"

	"repro/internal/api"
	"repro/internal/blocked"
	"repro/internal/client"
	"repro/internal/grid"
)

// TestRouterCacheKeysOnAccept: a slab's compressed extent and its
// decoded samples are two representations behind one URL, chosen by
// Accept. The router cache and coalescing table must hold them apart,
// whichever representation fills the cache first. Each order runs on a
// fresh fleet (store-backed szd, default router cache) so its first
// read is the one that fills the cache.
func TestRouterCacheKeysOnAccept(t *testing.T) {
	for _, extentFirst := range []bool{true, false} {
		name := "raw-first"
		if extentFirst {
			name = "extent-first"
		}
		t.Run(name, func(t *testing.T) {
			_, ts := newRouter(t, Config{Backends: []string{newSzdWithStore(t)}})
			raw := makeRaw(t, grid.Float32, 16, 8, 8)
			stream, digest := routedContainer(t, ts.URL, raw, "codec=blocked&abs=1e-3&dtype=f32&dims=16,8,8&slab=4")
			arr, dt, err := blocked.DecompressSlabRange(stream, 1, 1)
			if err != nil {
				t.Fatal(err)
			}
			var want bytes.Buffer
			if err := arr.WriteRaw(&want, dt); err != nil {
				t.Fatal(err)
			}
			cl, err := client.New(ts.URL)
			if err != nil {
				t.Fatal(err)
			}

			readRaw := func(pass string) {
				t.Helper()
				resp, err := http.Get(ts.URL + api.PathSlabPrefix + "1?" + api.QueryDigest + "=" + digest)
				if err != nil {
					t.Fatal(err)
				}
				got := readAllClose(t, resp)
				if resp.StatusCode != http.StatusOK {
					t.Fatalf("%s raw read: status %d: %s", pass, resp.StatusCode, got)
				}
				if ct := resp.Header.Get("Content-Type"); ct != "application/octet-stream" {
					t.Fatalf("%s raw read: Content-Type %q, want application/octet-stream", pass, ct)
				}
				if !bytes.Equal(got, want.Bytes()) {
					t.Fatalf("%s raw read: %d bytes, want the %d decoded sample bytes", pass, len(got), want.Len())
				}
				if c := resp.Header.Get(api.HeaderCache); pass == "cached" && c != "hit" {
					t.Fatalf("%s raw read: %s %q, want a cache hit", pass, api.HeaderCache, c)
				}
			}
			readExtent := func(pass string) {
				t.Helper()
				ext, err := cl.ReadSlabExtent(context.Background(), digest, 1, 1)
				if err != nil {
					t.Fatalf("%s extent read: %v", pass, err)
				}
				if ext.Raw {
					t.Fatalf("%s extent read got decoded samples, not the extent", pass)
				}
				got, err := ext.Decode()
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(got, want.Bytes()) {
					t.Fatalf("%s extent read decodes to different samples", pass)
				}
			}

			// First pass fills the cache in this order; the second pass
			// is served from it and must still keep the two apart.
			for _, pass := range []string{"fill", "cached"} {
				if extentFirst {
					readExtent(pass)
					readRaw(pass)
				} else {
					readRaw(pass)
					readExtent(pass)
				}
			}
			// And the raw client reader must see its own representation.
			rc, err := cl.ReadSlabAt(context.Background(), digest, 1, 1)
			if err != nil {
				t.Fatalf("ReadSlabAt: %v", err)
			}
			var got bytes.Buffer
			got.ReadFrom(rc)
			rc.Close()
			if !bytes.Equal(got.Bytes(), want.Bytes()) {
				t.Fatalf("ReadSlabAt: %d bytes, want %d", got.Len(), want.Len())
			}
		})
	}
}
