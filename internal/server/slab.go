package server

// Slab range serving: the paper's random-access decompression pattern
// over HTTP. A blocked container carries a seekable footer index, so a
// client can ask the daemon for any contiguous slab range without
// paying for a full decode:
//
//	GET|POST /v1/slabs       container in, footer index out (JSON)
//	GET|POST /v1/slab/{i}    container in, slab i's raw samples out
//	GET|POST /v1/slab/{lo-hi}  inclusive slab range, concatenated
//
// The container travels as the request body or is named by digest and
// served off the store (see source in store.go); either way one handler
// per endpoint parses the index and serves the range. Only the
// requested rows are reconstructed and returned — or, when the client
// accepts it, the range's compressed bytes with no decode at all.

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"time"

	"repro/internal/api"
	"repro/internal/blocked"
	"repro/internal/codec"
	"repro/internal/obs"
	"repro/internal/scratch"
)

// slabCharge estimates the memory a slab-range read pins: the buffered
// container plus the decoded range — one float64 working copy and the
// raw output per cell, with headroom for the per-worker slab
// reconstructions (24 B/cell total). A body's range geometry comes from
// its peeked, attacker-supplied header, so every product saturates. A
// stored entry is mapped, not buffered, and its index is cheap to parse
// up front: it is charged the decode alone, floored at the mmap read
// charge, and an extent it serves without decoding costs only that
// floor.
func (s *Server) slabCharge(src *source, lo, hi int, extent bool) int64 {
	base := s.bufferCharge(src)
	var dims []int
	var slabRows int
	if src.ent != nil {
		ix, err := src.index()
		if err != nil || extent && !ix.SharedCodebook() {
			return base
		}
		dims, slabRows = ix.Dims, ix.SlabRows
	} else {
		ci, err := blocked.ParseContainerHeader(src.head(blocked.MaxHeaderLen))
		if err != nil {
			return satMul(base, 2)
		}
		dims, slabRows = ci.Dims, ci.SlabRows
	}
	rowCells := int64(1)
	for _, d := range dims[1:] {
		rowCells = satMul(rowCells, int64(d))
	}
	rows := satMul(int64(hi-lo+1), int64(slabRows))
	if rows > int64(dims[0]) {
		rows = int64(dims[0])
	}
	decode := satMul(satMul(rows, rowCells), 24)
	if src.ent != nil {
		return max(base, decode)
	}
	return base + decode
}

// getOrPost admits the methods the buffered read endpoints take (GET
// with a body, or POST); on false the 405 has been written.
func (s *Server) getOrPost(w http.ResponseWriter, r *http.Request) bool {
	if r.Method == http.MethodGet || r.Method == http.MethodPost {
		return true
	}
	w.Header().Set("Allow", "GET, POST")
	s.writeError(w, http.StatusMethodNotAllowed, fmt.Errorf("use GET or POST"))
	return false
}

func (s *Server) handleSlabs(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	if !s.getOrPost(w, r) {
		return
	}
	src, ok := s.openSource(w, r, "slabs", start)
	if !ok {
		return
	}
	defer src.release()
	if !s.readContainer(w, r, &src, "slabs", s.bufferCharge(&src), start) || s.revalidated(w, r, &src, "slabs", start) {
		return
	}
	ix, err := src.index()
	if err != nil {
		s.reject(w, "slabs", "", http.StatusBadRequest, err, start)
		return
	}
	s.keep(w, &src)
	resp, err := json.Marshal(codec.SlabIndexFrom(src.stream, ix))
	if err != nil {
		s.reject(w, "slabs", "blocked", http.StatusInternalServerError, err, start)
		return
	}
	resp = append(resp, '\n')
	w.Header().Set("Content-Type", "application/json")
	w.Write(resp)
	s.met.record("slabs", "blocked", http.StatusOK, src.bytesIn(), int64(len(resp)), time.Since(start))
}

func (s *Server) handleSlab(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	// The representation follows Accept — compressed extent or decoded
	// samples — so a shared cache must key on it.
	w.Header().Set("Vary", "Accept")
	if !s.getOrPost(w, r) {
		return
	}
	lo, hi, err := codec.ParseSlabSpec(strings.TrimPrefix(r.URL.Path, api.PathSlabPrefix))
	if err != nil {
		s.reject(w, "slab", "", http.StatusBadRequest, err, start)
		return
	}
	extent := api.WantsSlabExtent(r.Header.Get("Accept"))
	src, ok := s.openSource(w, r, "slab", start)
	if !ok {
		return
	}
	defer src.release()
	if !s.readContainer(w, r, &src, "slab", s.slabCharge(&src, lo, hi, extent), start) || s.revalidated(w, r, &src, "slab", start) {
		return
	}
	ix, err := src.index()
	if err != nil {
		s.reject(w, "slab", "blocked", http.StatusBadRequest, err, start)
		return
	}
	off, end, err := ix.SlabExtent(lo, hi)
	if err != nil {
		// A well-formed spec beyond the container's extent is the range
		// version of a seek past EOF, not a malformed request.
		s.reject(w, "slab", "blocked", http.StatusRequestedRangeNotSatisfiable, err, start)
		return
	}
	tr := obs.FromContext(r.Context())
	h := w.Header()
	if extent && !ix.SharedCodebook() {
		// A pure slice of the container: the zero-copy fast path.
		s.keep(w, &src)
		rowLo, _ := ix.SlabBounds(lo)
		_, rowHi := ix.SlabBounds(hi)
		dims := append([]int(nil), ix.Dims...)
		dims[0] = rowHi - rowLo
		h.Set("Content-Type", SlabContentType)
		h.Set(api.HeaderCodec, "blocked")
		h.Set(api.HeaderDims, codec.FormatDims(dims))
		h.Set(api.HeaderSlabs, codec.FormatSlabSpec(lo, hi))
		h.Set(api.HeaderSlabLengths, formatSlabLengths(ix, lo, hi))
		out := &respWriter{ResponseWriter: w}
		sp := tr.StartSpan("mmap_serve")
		_, err = out.Write(src.stream[off:end])
		sp.End()
		s.finishStream(w, out, "slab", "blocked", src.bytesIn(), err, start)
		return
	}
	// Decoded samples — also the answer to an extent request on a
	// shared-codebook container, which has no self-contained extent.
	sp := tr.StartSpan("decode")
	arr, dt, err := blocked.DecompressSlabRangeIndexed(src.stream, ix, lo, hi)
	sp.End()
	if err != nil {
		s.reject(w, "slab", "blocked", http.StatusBadRequest, err, start)
		return
	}
	s.keep(w, &src)
	h.Set("Content-Type", "application/octet-stream")
	h.Set(api.HeaderCodec, "blocked")
	h.Set(api.HeaderDtype, dt.String())
	h.Set(api.HeaderDims, codec.FormatDims(arr.Dims))
	h.Set(api.HeaderSlabs, codec.FormatSlabSpec(lo, hi))
	out := &respWriter{ResponseWriter: w}
	err = arr.WriteRaw(out, dt)
	scratch.PutFloat64s(arr.Data)
	s.finishStream(w, out, "slab", "blocked", src.bytesIn(), err, start)
}

// formatSlabLengths renders the per-slab stream lengths of lo..hi as a
// comma list so an extent's receiver can split it without re-fetching
// the index.
func formatSlabLengths(ix *blocked.Index, lo, hi int) string {
	var b strings.Builder
	for i := lo; i <= hi; i++ {
		if i > lo {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%d", ix.Offsets[i+1]-ix.Offsets[i])
	}
	return b.String()
}
