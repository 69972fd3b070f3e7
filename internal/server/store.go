package server

// Content-addressed serving: the glue between the HTTP surface and
// internal/store that turns repeat reads into a read-mostly path.
//
// Every finished container szd produces (compress responses) or fully
// consumes (decompress/slab bodies) is persisted in the store under its
// payload SHA-256, and the digest travels back as the response ETag —
// as a trailer on streaming responses, a header on buffered ones. From
// then on a client can reference the container by digest alone
// (?digest= or X-Sz-Digest) and the daemon serves slab reads straight
// off the mmap'd entry: no upload, no whole-container CRC (the digest
// vouched for the bytes at write time), no decode when the client
// accepts compressed slab bytes (Accept: application/x-sz-slab), and an
// admission charge that reflects the near-zero heap such a read pins.
// If-None-Match against a content-addressed ETag is answered 304
// unconditionally — identical digest means identical bytes, stored or
// not.

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"time"

	"repro/internal/api"
	"repro/internal/blocked"
	"repro/internal/codec"
	"repro/internal/obs"
	"repro/internal/scratch"
	"repro/internal/store"
)

// SlabContentType is the media type for compressed slab extents: the
// concatenated core streams of the requested slab range, exactly as
// they sit in the container body.
const SlabContentType = api.MediaTypeSlabExtent

const (
	// mmapReadCharge is the admission charge for responses served as
	// slices of an mmap'd store entry: the copy buffer and response
	// plumbing, not the payload (which pins page cache, not heap).
	mmapReadCharge = 256 << 10
	// storePutCharge covers the streaming disk write of a PUT
	// /v1/container body: one copy buffer; the payload goes to disk.
	storePutCharge = 512 << 10
)

// requestDigest extracts a content-address reference from the request
// (?digest= query value or X-Sz-Digest header), validating its shape.
func requestDigest(r *http.Request) (string, error) {
	d := r.URL.Query().Get(api.QueryDigest)
	if d == "" {
		d = r.Header.Get(api.HeaderDigest)
	}
	if d == "" {
		return "", nil
	}
	if !store.ValidDigest(d) {
		return "", fmt.Errorf("malformed digest %q (want 64 lowercase hex chars)", d)
	}
	return d, nil
}

// etagFor renders a container digest as a strong ETag.
func etagFor(digest string) string { return `"` + digest + `"` }

// ifNoneMatchHas reports whether the request's If-None-Match field
// matches etag. Content-addressed responses are immutable, so a match
// always means 304 — the client already holds these exact bytes.
func ifNoneMatchHas(r *http.Request, etag string) bool {
	inm := r.Header.Get("If-None-Match")
	if inm == "" {
		return false
	}
	for _, part := range strings.Split(inm, ",") {
		part = strings.TrimSpace(part)
		if part == "*" || part == etag || strings.TrimPrefix(part, "W/") == etag {
			return true
		}
	}
	return false
}

// notModified answers a conditional request whose ETag matched.
func (s *Server) notModified(w http.ResponseWriter, endpoint, codecName, etag string, start time.Time) {
	w.Header().Set("Etag", etag)
	w.WriteHeader(http.StatusNotModified)
	s.met.record(endpoint, codecName, http.StatusNotModified, 0, 0, time.Since(start))
}

// storePut persists payload best-effort (a full store or failing disk
// must never fail the request being served) and returns the digest
// ("" when the store is absent or the write failed).
func (s *Server) storePut(payload []byte) string {
	if s.cfg.Store == nil {
		return ""
	}
	d, err := s.cfg.Store.Put(payload)
	if err != nil {
		return ""
	}
	return d
}

// bestEffortPut tees a response stream into a store putter without ever
// failing the response: the first write error abandons the put and the
// tee degrades to a no-op.
type bestEffortPut struct {
	p      *store.Putter
	t      *obs.Trace // when set, store writes aggregate as "store_write"
	failed bool
}

func (b *bestEffortPut) Write(d []byte) (int, error) {
	if !b.failed {
		var t0 time.Time
		if b.t != nil {
			t0 = time.Now()
		}
		if _, err := b.p.Write(d); err != nil {
			b.failed = true
			b.p.Abort()
		}
		if b.t != nil {
			b.t.Observe("store_write", time.Since(t0))
		}
	}
	return len(d), nil
}

// commit finalizes the tee'd put and returns the digest ("" on any
// earlier failure). abort discards it.
func (b *bestEffortPut) commit() string {
	if b.failed {
		return ""
	}
	var t0 time.Time
	if b.t != nil {
		t0 = time.Now()
	}
	d, err := b.p.Commit("")
	if b.t != nil {
		b.t.Observe("store_write", time.Since(t0))
	}
	if err != nil {
		return ""
	}
	return d
}

func (b *bestEffortPut) abort() {
	if !b.failed {
		b.failed = true
		b.p.Abort()
	}
}

// source is a read request's container, resolved once so each read
// endpoint runs one handler whichever tier holds the bytes. It is
// either the request body — untrusted: admitted before it is read,
// CRC-verified when its index is parsed, and persisted once it
// validates — or a store entry: mmap'd, served zero-copy, and
// digest-verified when it was written, so its index parses without the
// CRC walk.
type source struct {
	ent    *store.Entry // nil on the body path
	body   *peekReader  // body path: the request body, not yet consumed
	size   int64        // the entry's length, or the body's declared one (-1 unknown)
	stream []byte       // the whole container: the mapped entry, or the body once buffered
	etag   string       // the container's ETag once known
	gr     *grant       // the admission grant once taken

	ix    *blocked.Index // the parsed footer index, once asked for
	ixErr error
}

// openSource resolves a read request's container. A digest reference
// (?digest= or X-Sz-Digest) opens the store entry: a matching
// If-None-Match answers 304 before the store is touched — the digest
// names the bytes, so the match is decisive even for an evicted entry —
// and X-Sz-Store tells routers and tests whether the tier-2 disk store
// answered. Without one the container is the request body. On false the
// response has been written.
func (s *Server) openSource(w http.ResponseWriter, r *http.Request, endpoint string, start time.Time) (source, bool) {
	digest, err := requestDigest(r)
	if err != nil {
		s.reject(w, endpoint, "", http.StatusBadRequest, err, start)
		return source{}, false
	}
	if digest == "" {
		return s.bodySource(w, r, endpoint, start)
	}
	etag := etagFor(digest)
	if ifNoneMatchHas(r, etag) {
		s.notModified(w, endpoint, "", etag, start)
		return source{}, false
	}
	if s.cfg.Store == nil {
		s.reject(w, endpoint, "", http.StatusNotFound,
			fmt.Errorf("digest-referenced reads need a store (-store-dir)"), start)
		return source{}, false
	}
	sp := obs.FromContext(r.Context()).StartSpan("store_read")
	ent, err := s.cfg.Store.Get(digest)
	sp.End()
	if err != nil {
		w.Header().Set(api.HeaderStore, "miss")
		status := http.StatusNotFound
		if !errors.Is(err, store.ErrNotFound) {
			status = http.StatusInternalServerError
		}
		s.reject(w, endpoint, "", status, fmt.Errorf("container %s not in store", digest), start)
		return source{}, false
	}
	w.Header().Set(api.HeaderStore, "hit")
	w.Header().Set("Etag", etag)
	return source{ent: ent, size: ent.Size(), stream: ent.Bytes(), etag: etag}, true
}

// bodySource takes the request body as the container, refusing a
// declared length beyond the per-request cap before reading any of it.
func (s *Server) bodySource(w http.ResponseWriter, r *http.Request, endpoint string, start time.Time) (source, bool) {
	declared := declaredLength(r)
	if s.cfg.MaxRequestBytes > 0 && declared > s.cfg.MaxRequestBytes {
		s.reject(w, endpoint, "", http.StatusRequestEntityTooLarge, errTooLarge, start)
		return source{}, false
	}
	return source{body: newPeekReader(r.Body), size: declared}, true
}

// head returns the container's leading bytes, at least n where it has
// them: a peek of the unread body, or the whole mapped entry (the header
// parsers read a bounded prefix).
func (src *source) head(n int) []byte {
	if src.ent != nil {
		return src.stream
	}
	h, _ := src.body.Peek(n)
	return h
}

// bytesIn is the request-body byte count the metrics record for a
// buffered read: none for a stored entry.
func (src *source) bytesIn() int64 {
	if src.ent != nil {
		return 0
	}
	return int64(len(src.stream))
}

// bufferCharge is what holding the whole container pins: a body's
// declared length (or the flat unknown-length charge); for a store
// entry only the response plumbing — the mapped payload pins page
// cache, not heap.
func (s *Server) bufferCharge(src *source) int64 {
	switch {
	case src.ent != nil:
		return mmapReadCharge
	case src.size < 0:
		return s.unknownCharge()
	}
	return src.size
}

// admitSource takes the request's admission grant, which the source
// then holds. On false the response has been written.
func (s *Server) admitSource(w http.ResponseWriter, r *http.Request, src *source, endpoint, codecName string, charge int64, start time.Time) bool {
	gr, status, err := s.admit(r.Context(), obs.FromContext(r.Context()), charge, 1)
	if err != nil {
		s.reject(w, endpoint, codecName, status, err, start)
		return false
	}
	src.gr = gr
	return true
}

// readContainer admits a buffered read at charge and loads the whole
// container: a store entry is already mapped; a body is read into a
// scratch buffer, metered against the grant and the per-request cap.
// On false the response has been written.
func (s *Server) readContainer(w http.ResponseWriter, r *http.Request, src *source, endpoint string, charge int64, start time.Time) bool {
	if !s.admitSource(w, r, src, endpoint, "", charge, start) {
		return false
	}
	if src.ent != nil {
		return true
	}
	body := newMeteredReader(src.body, src.gr, src.size, charge, s.cfg.MaxRequestBytes, 1, false)
	var err error
	src.stream, err = readAllScratch(body, src.size)
	if err != nil {
		s.reject(w, endpoint, "", streamErrStatus(err), err, start)
		return false
	}
	return true
}

// revalidated answers 304 when If-None-Match already names a buffered
// body — checked before any footer walk or decode, the expensive part a
// repeat reader can still skip. A store source was checked when it was
// opened.
func (s *Server) revalidated(w http.ResponseWriter, r *http.Request, src *source, endpoint string, start time.Time) bool {
	if src.ent != nil {
		return false
	}
	src.etag = etagFor(bodyDigest(src.stream))
	if !ifNoneMatchHas(r, src.etag) {
		return false
	}
	s.notModified(w, endpoint, "blocked", src.etag, start)
	return true
}

// index parses the loaded container's footer index, once per request.
// A body is untrusted, so its CRC is verified; a store entry's
// integrity was digest-verified when it was written, and skipping the
// O(container) CRC walk is most of the non-decode saving on the warm
// path.
func (src *source) index() (*blocked.Index, error) {
	if src.ix != nil || src.ixErr != nil {
		return src.ix, src.ixErr
	}
	c, err := codec.Detect(src.stream)
	switch {
	case err != nil:
		src.ixErr = err
	case c.Name() != "blocked":
		src.ixErr = fmt.Errorf("codec %s has no slab index (random access needs a blocked container)", c.Name())
	case src.ent != nil:
		src.ix, src.ixErr = blocked.InspectNoVerify(src.stream)
	default:
		src.ix, src.ixErr = blocked.Inspect(src.stream)
	}
	return src.ix, src.ixErr
}

// keep stamps a validated container's ETag on the response and
// persists a body container, so the next read can reference the digest
// instead of re-uploading (tier-2 fill through the body path).
func (s *Server) keep(w http.ResponseWriter, src *source) {
	if src.ent == nil { // a store source stamped its ETag when opened
		s.storePut(src.stream)
		w.Header().Set("Etag", src.etag)
	}
}

// release returns what the request held: the grant, the body buffer
// (to the scratch pool) or the entry's mapping.
func (src *source) release() {
	if src.gr != nil {
		src.gr.release()
	}
	if src.ent != nil {
		src.ent.Release()
	} else if src.stream != nil {
		scratch.PutBytes(src.stream)
	}
}

// handleContainer is the peer-fill/admin surface of the store:
//
//	GET  /v1/container/{digest}  the stored container bytes, or 404
//	HEAD /v1/container/{digest}  204 if stored, 404 otherwise
//	PUT  /v1/container/{digest}  store the body under digest (digest-verified)
//
// Routers use it to migrate entries between backends when ring affinity
// moves, so a slab read on a freshly-assigned owner can be answered
// from a peer's disk instead of recomputing. HEAD is the replicator's
// existence probe: a GET answers 304 on If-None-Match whether or not
// the entry is stored (the digest names the bytes), so only HEAD tells
// a copier whether the target actually holds them.
func (s *Server) handleContainer(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	digest := strings.TrimPrefix(r.URL.Path, api.PathContainerPrefix)
	if !store.ValidDigest(digest) {
		s.reject(w, "container", "", http.StatusBadRequest,
			fmt.Errorf("malformed digest %q", digest), start)
		return
	}
	if s.cfg.Store == nil {
		s.reject(w, "container", "", http.StatusNotFound,
			fmt.Errorf("no store configured (-store-dir)"), start)
		return
	}
	switch r.Method {
	case http.MethodHead:
		if !s.cfg.Store.Contains(digest) {
			w.Header().Set(api.HeaderStore, "miss")
			w.WriteHeader(http.StatusNotFound)
			s.met.record("container", "", http.StatusNotFound, 0, 0, time.Since(start))
			return
		}
		w.Header().Set(api.HeaderStore, "hit")
		w.Header().Set("Etag", etagFor(digest))
		w.WriteHeader(http.StatusNoContent)
		s.met.record("container", "", http.StatusNoContent, 0, 0, time.Since(start))
	case http.MethodGet:
		etag := etagFor(digest)
		if ifNoneMatchHas(r, etag) {
			s.notModified(w, "container", "", etag, start)
			return
		}
		sp := obs.FromContext(r.Context()).StartSpan("store_read")
		ent, err := s.cfg.Store.Get(digest)
		sp.End()
		if err != nil {
			w.Header().Set(api.HeaderStore, "miss")
			s.reject(w, "container", "", http.StatusNotFound, fmt.Errorf("container %s not in store", digest), start)
			return
		}
		defer ent.Release()
		gr, status, err := s.admit(r.Context(), obs.FromContext(r.Context()), mmapReadCharge, 1)
		if err != nil {
			s.reject(w, "container", "", status, err, start)
			return
		}
		defer gr.release()
		w.Header().Set(api.HeaderStore, "hit")
		w.Header().Set("Etag", etag)
		w.Header().Set("Content-Type", "application/octet-stream")
		w.Header().Set("Content-Length", fmt.Sprintf("%d", ent.Size()))
		out := &respWriter{ResponseWriter: w}
		_, err = out.Write(ent.Bytes())
		s.finishStream(w, out, "container", "", 0, err, start)
	case http.MethodPut:
		declared := declaredLength(r)
		if s.cfg.MaxRequestBytes > 0 && declared > s.cfg.MaxRequestBytes {
			s.reject(w, "container", "", http.StatusRequestEntityTooLarge, errTooLarge, start)
			return
		}
		gr, status, err := s.admit(r.Context(), obs.FromContext(r.Context()), storePutCharge, 1)
		if err != nil {
			s.reject(w, "container", "", status, err, start)
			return
		}
		defer gr.release()
		if s.cfg.Store.Contains(digest) {
			w.WriteHeader(http.StatusNoContent)
			s.met.record("container", "", http.StatusNoContent, 0, 0, time.Since(start))
			return
		}
		put, err := s.cfg.Store.NewPut()
		if err != nil {
			s.reject(w, "container", "", http.StatusInternalServerError, err, start)
			return
		}
		body := newMeteredReader(r.Body, gr, declared, storePutCharge, s.cfg.MaxRequestBytes, 1, true)
		cbuf := scratch.Bytes(streamCopyBuffer)
		sp := obs.FromContext(r.Context()).StartSpan("store_write")
		n, err := io.CopyBuffer(put, body, cbuf)
		sp.End()
		scratch.PutBytes(cbuf)
		if err != nil {
			put.Abort()
			s.reject(w, "container", "", streamErrStatus(err), err, start)
			return
		}
		if _, err := put.Commit(digest); err != nil {
			// The body hashed to something else: the upload is corrupt
			// (or mislabeled) and was not stored.
			s.reject(w, "container", "", http.StatusBadRequest, err, start)
			return
		}
		w.WriteHeader(http.StatusNoContent)
		s.met.record("container", "", http.StatusNoContent, n, 0, time.Since(start))
	default:
		w.Header().Set("Allow", "GET, HEAD, PUT")
		s.writeError(w, http.StatusMethodNotAllowed, fmt.Errorf("use GET, HEAD, or PUT"))
	}
}

// handleContainers lists the store's inventory:
//
//	GET /v1/containers  {"digests": ["...", ...]}
//
// It is the anti-entropy sweep's read side: the router lists every
// backend, computes which digests are under-replicated for the current
// ring, and copies them where they belong. The listing is a snapshot —
// entries may be evicted between the list and a later read — so
// consumers must treat a subsequent 404 as normal, not as corruption.
func (s *Server) handleContainers(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	if s.cfg.Store == nil {
		s.reject(w, "containers", "", http.StatusNotFound,
			fmt.Errorf("no store configured (-store-dir)"), start)
		return
	}
	resp, err := json.Marshal(struct {
		Digests []string `json:"digests"`
	}{Digests: s.cfg.Store.Digests()})
	if err != nil {
		s.reject(w, "containers", "", http.StatusInternalServerError, err, start)
		return
	}
	resp = append(resp, '\n')
	w.Header().Set("Content-Type", "application/json")
	w.Write(resp)
	s.met.record("containers", "", http.StatusOK, 0, int64(len(resp)), time.Since(start))
}

// bodyDigest hashes a buffered container body — the same digest the
// router computed for ring placement and the client can compute
// locally, so the three tiers agree on the name for these bytes.
func bodyDigest(stream []byte) string {
	sum := sha256.Sum256(stream)
	return hex.EncodeToString(sum[:])
}
