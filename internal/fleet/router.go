package fleet

// The routing proxy. One Router fronts a set of szd backends:
//
//   - Replayable bodies (those that fit the buffer limit) are routed by
//     stream identity: the SHA-256 of the body picks the owning ring
//     node, and on 429/503/connect failure the request replays against
//     the next ring node in sequence. Identical inputs always land on
//     the same healthy backend, which keeps per-node caches hot.
//   - Unbounded streaming bodies cannot be replayed, so they skip the
//     ring: the router picks the least-loaded routable backend
//     (round-robin among ties) and forwards in a single attempt.
//   - Backend rejections that exhaust every candidate are relayed to
//     the client unchanged — status, body, and Retry-After header — so
//     client backoff works exactly as it does against a single daemon.
//
// The router adds X-Sz-Backend to every response naming the backend
// that served (or last rejected) it, and exposes szrouter_* metrics:
// per-backend forwards, failovers, and request counts by status. Every
// request is traced: the router continues an inbound W3C traceparent
// (or opens a trace), propagates it to the backend, and merges the
// backend's Server-Timing under a "be-" prefix into its own.

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/api"
	"repro/internal/obs"
	"repro/internal/scratch"
	"repro/internal/store"
)

const (
	// defaultBufferLimit bounds the body bytes buffered to keep a
	// request replayable (hash-routed, retryable). Matches the szd
	// client's default.
	defaultBufferLimit = 4 << 20
	// relayErrBodyLimit bounds how much of a rejection body is stored
	// for relaying after every candidate failed.
	relayErrBodyLimit = 4 << 10
	// defaultCacheBytes is the response cache's byte budget.
	defaultCacheBytes = 64 << 20
	// defaultCacheEntryBytes caps a single cacheable response. It is
	// deliberately larger than the request buffer limit: decompress and
	// slab responses expand their input.
	defaultCacheEntryBytes = 16 << 20
	// defaultDrainGrace is how long a removed backend keeps answering
	// in-flight work and serving as an anti-entropy source before the
	// router forgets it entirely.
	defaultDrainGrace = 10 * time.Second
	// replDedupTTL suppresses repeat replication kicks for the same
	// digest: every read of a popular container re-announces its ETag,
	// and one HEAD probe per replica per TTL is plenty.
	replDedupTTL = time.Minute
	// replDedupMax bounds the dedup map; beyond it, expired entries are
	// pruned (and if none expired, the map is reset — re-probing is
	// cheap, unbounded growth is not).
	replDedupMax = 4096
	// replCopyTimeout bounds one background replica copy.
	replCopyTimeout = 60 * time.Second
)

// cacheableEndpoint marks the endpoints whose responses are pure
// functions of (input bytes, parameters) and cheap to replay: the
// decode-side family. Compression is deterministic too, but its inputs
// are raw fields — large, rarely repeated — so caching it would only
// churn the budget.
var cacheableEndpoint = map[string]bool{
	"decompress": true,
	"inspect":    true,
	"slabs":      true,
	"slab":       true,
}

// Config configures a Router.
type Config struct {
	// Backends are the szd nodes ("host:port" or full URLs). Required.
	Backends []string
	// Replicas is the ring vnode count per backend (0 = 128).
	Replicas int
	// BufferLimit is the replayable-body cap in bytes (0 = 4 MiB).
	BufferLimit int
	// PollInterval is the health-poll cadence (0 = 2s).
	PollInterval time.Duration
	// HTTPClient overrides the proxy transport (nil = no-timeout client;
	// streams may legitimately run for minutes).
	HTTPClient *http.Client
	// CacheBytes is the response-cache byte budget for the decode-side
	// endpoints (decompress, slab, slabs, inspect). 0 means the 64 MiB
	// default; negative disables the cache AND in-flight coalescing.
	CacheBytes int64
	// CacheEntryBytes caps a single cached (or coalesced) response;
	// larger responses stream through uncached. 0 means the 16 MiB
	// default.
	CacheEntryBytes int64
	// SlowThreshold is the total-duration floor above which a finished
	// request is logged structured with its stage breakdown; <= 0
	// disables slow-request logging. cmd/szrouter wires -slow-ms.
	SlowThreshold time.Duration
	// TraceRingSize is how many finished traces /debug/traces retains
	// (0 = obs.DefaultRingSize).
	TraceRingSize int
	// Replication is the slab-store replication factor R: every
	// validated container is copied to the ring owner and R-1
	// successors, so any single backend can die without losing data.
	// 0 or 1 disables replication (owner-only, the pre-R behavior).
	Replication int
	// WarmupGrace is how long a never-healthy backend reads as warming
	// instead of dead (0 = DefaultWarmupGrace, < 0 disables).
	WarmupGrace time.Duration
	// DrainGrace is how long a removed backend lingers as a drain/
	// anti-entropy source before being forgotten (0 = 10s).
	DrainGrace time.Duration
	// AntiEntropyInterval is the periodic anti-entropy sweep cadence.
	// 0 means sweeps run only when membership changes; < 0 disables
	// the sweep loop entirely (SweepOnce still works for tests).
	AntiEntropyInterval time.Duration
}

// Router is the fleet-mode HTTP proxy.
type Router struct {
	// mu guards the membership state below: the ring (not itself
	// goroutine-safe), the serving backend list, and the pending/leaving
	// lifecycle sets. Request-path readers take it shared; SetBackends
	// and the poll-driven reconciler take it exclusive.
	mu       sync.RWMutex
	ring     *Ring
	backends []string             // serving set: in-ring plus pending warm-ups
	pending  map[string]bool      // added, awaiting first healthy poll before ring entry
	leaving  map[string]time.Time // removed from ring, kept as drain/repair source until deadline

	poller      *Poller
	client      *http.Client
	bufferLimit int
	replication int
	drainGrace  time.Duration
	aeInterval  time.Duration
	rr          atomic.Uint64
	met         *routerMetrics
	rec         *obs.Recorder
	mux         *http.ServeMux

	// Background replication: replSeen dedups per-digest kicks, replWG
	// tracks in-flight copies, and the sweep goroutine re-replicates
	// under-replicated digests after membership changes.
	replMu    sync.Mutex
	replSeen  map[string]time.Time
	replWG    sync.WaitGroup
	sweepKick chan struct{}
	sweepStop chan struct{}
	sweepDone chan struct{}

	// cache and flights implement the zero-recompute path: cache serves
	// repeated identical requests without a backend round trip, flights
	// collapses concurrent identical requests onto one backend call.
	// Both are nil when caching is disabled.
	cache      *respCache
	flights    *flightGroup
	entryLimit int64
}

// New builds a Router; call Start to begin health polling.
func New(cfg Config) (*Router, error) {
	if len(cfg.Backends) == 0 {
		return nil, errors.New("fleet: no backends configured")
	}
	seen := map[string]bool{}
	for _, b := range cfg.Backends {
		if b == "" || seen[b] {
			return nil, fmt.Errorf("fleet: empty or duplicate backend %q", b)
		}
		seen[b] = true
	}
	limit := cfg.BufferLimit
	if limit <= 0 {
		limit = defaultBufferLimit
	}
	hc := cfg.HTTPClient
	if hc == nil {
		hc = &http.Client{}
	}
	// The poller needs its own short-timeout client, but it must share
	// the proxy transport when one is configured — that is where the
	// mTLS client certificate lives, and probing an mTLS backend in
	// plaintext would read every node as dead.
	pi := cfg.PollInterval
	if pi <= 0 {
		pi = 2 * time.Second
	}
	var phc *http.Client
	if hc.Transport != nil {
		phc = &http.Client{Timeout: pi / 2, Transport: hc.Transport}
	}
	replication := cfg.Replication
	if replication < 1 {
		replication = 1
	}
	drainGrace := cfg.DrainGrace
	if drainGrace <= 0 {
		drainGrace = defaultDrainGrace
	}
	rt := &Router{
		ring:        NewRing(cfg.Replicas, cfg.Backends...),
		poller:      NewPoller(cfg.Backends, cfg.PollInterval, cfg.WarmupGrace, phc),
		backends:    append([]string(nil), cfg.Backends...),
		pending:     map[string]bool{},
		leaving:     map[string]time.Time{},
		client:      hc,
		bufferLimit: limit,
		replication: replication,
		drainGrace:  drainGrace,
		aeInterval:  cfg.AntiEntropyInterval,
		replSeen:    map[string]time.Time{},
		sweepKick:   make(chan struct{}, 1),
		rec:         obs.NewRecorder(cfg.TraceRingSize, cfg.SlowThreshold, nil),
		mux:         http.NewServeMux(),
	}
	rt.poller.afterPoll = rt.reconcile
	if cfg.CacheBytes >= 0 {
		cacheBytes := cfg.CacheBytes
		if cacheBytes == 0 {
			cacheBytes = defaultCacheBytes
		}
		rt.entryLimit = cfg.CacheEntryBytes
		if rt.entryLimit <= 0 {
			rt.entryLimit = defaultCacheEntryBytes
		}
		rt.cache = newRespCache(cacheBytes)
		rt.flights = newFlightGroup()
	}
	rt.met = newRouterMetrics(rt.poller, rt.cache)
	rt.mux.HandleFunc(api.PathCompress, rt.withObs("compress", rt.proxyBody("compress")))
	rt.mux.HandleFunc(api.PathDecompress, rt.withObs("decompress", rt.proxyBody("decompress")))
	rt.mux.HandleFunc(api.PathInspect, rt.withObs("inspect", rt.proxyBody("inspect")))
	rt.mux.HandleFunc(api.PathSlabs, rt.withObs("slabs", rt.proxyBody("slabs")))
	rt.mux.HandleFunc(api.PathSlabPrefix, rt.withObs("slab", rt.proxyBody("slab")))
	rt.mux.HandleFunc(api.PathContainerPrefix, rt.withObs("container", rt.proxyBody("container")))
	rt.mux.HandleFunc(api.PathCodecs, rt.withObs("codecs", rt.proxyBodyless("codecs")))
	rt.mux.HandleFunc(api.PathLimits, rt.handleLimits)
	rt.mux.HandleFunc(api.PathHealthz, rt.handleHealthz)
	rt.mux.HandleFunc(api.PathMetrics, rt.handleMetrics)
	rt.mux.Handle(api.PathDebugTraces, rt.rec.Ring)
	return rt, nil
}

// withObs is the router's tracing middleware: it continues (or opens)
// the request's trace, echoes the request ID, renders Server-Timing —
// the router's own spans plus the backend's merged under "be-" — as a
// declared trailer, feeds the stage histograms, and records the trace.
func (rt *Router) withObs(endpoint string, h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		t := obs.StartTrace(endpoint, r.Header.Get("Traceparent"), r.Header.Get(api.HeaderRequestID))
		w.Header().Set(api.HeaderRequestID, t.RequestID)
		w.Header().Add("Trailer", "Server-Timing")
		// Tenant identity resolves at the edge and is never trusted from
		// the wire: any inbound X-Sz-Tenant is stripped, and a malformed
		// credential is answered here — before a backend burns admission
		// work on it. The resolved name rides to the backend as
		// X-Sz-Tenant (the backend still re-derives from the API key; the
		// header is for symmetry and logs, not trust).
		r.Header.Del(api.HeaderTenant)
		tenant, terr := api.TenantFromKey(r.Header.Get(api.HeaderAPIKey))
		if terr == nil {
			_, terr = api.ParsePriority(r.Header.Get(api.HeaderPriority))
		}
		if terr != nil {
			tenant = "invalid" // fixed label: hostile keys must not mint metric series
		}
		ow := &obsWriter{ResponseWriter: w, t: t}
		defer func() {
			status := ow.status
			if status == 0 {
				status = http.StatusOK
			}
			t.Finish(status)
			w.Header().Set("Server-Timing", t.ServerTiming())
			rt.met.tenantRequest(tenant, status)
			rt.met.recordStages(t)
			rt.rec.Done(t)
		}()
		if terr != nil {
			rt.met.request(endpoint, http.StatusBadRequest)
			rt.writeError(ow, http.StatusBadRequest,
				&api.Error{Code: api.CodeBadTenant, Message: terr.Error()})
			return
		}
		r.Header.Set(api.HeaderTenant, tenant)
		h(ow, r.WithContext(obs.NewContext(r.Context(), t)))
	}
}

// obsWriter captures the response status for the trace. Responses that
// carry a Content-Length (buffered relays) are not chunked, so the
// declared Server-Timing trailer would be dropped — for those the
// header is injected with the spans closed so far at WriteHeader time.
type obsWriter struct {
	http.ResponseWriter
	t      *obs.Trace
	status int
}

func (ow *obsWriter) WriteHeader(code int) {
	if ow.status == 0 {
		ow.status = code
		if ow.Header().Get("Content-Length") != "" {
			if v := ow.t.ServerTiming(); v != "" {
				ow.Header().Set("Server-Timing", v)
			}
		}
	}
	ow.ResponseWriter.WriteHeader(code)
}

func (ow *obsWriter) Write(b []byte) (int, error) {
	if ow.status == 0 {
		ow.WriteHeader(http.StatusOK)
	}
	return ow.ResponseWriter.Write(b)
}

// Unwrap lets http.ResponseController reach the underlying writer.
func (ow *obsWriter) Unwrap() http.ResponseWriter { return ow.ResponseWriter }

// Handler returns the router's HTTP handler.
func (rt *Router) Handler() http.Handler { return rt.mux }

// Start runs an initial synchronous health poll, begins the poll loop,
// and (with replication on) the anti-entropy sweep loop.
func (rt *Router) Start() {
	rt.poller.Start()
	if rt.replication > 1 && rt.aeInterval >= 0 {
		rt.sweepStop = make(chan struct{})
		rt.sweepDone = make(chan struct{})
		go rt.sweepLoop()
	}
}

// Stop halts health polling, the sweep loop, and waits for in-flight
// background replica copies.
func (rt *Router) Stop() {
	rt.poller.Stop()
	if rt.sweepStop != nil {
		close(rt.sweepStop)
		<-rt.sweepDone
		rt.sweepStop = nil
	}
	rt.replWG.Wait()
}

// Poller exposes the health tracker (for status pages and tests).
func (rt *Router) Poller() *Poller { return rt.poller }

// Backends returns the current serving set (in-ring plus warming), a
// copy.
func (rt *Router) Backends() []string {
	rt.mu.RLock()
	defer rt.mu.RUnlock()
	return append([]string(nil), rt.backends...)
}

// SetBackends applies a new membership set, reconciling it against the
// current one with the add → warm-up → in-ring and drain-then-remove
// lifecycles:
//
//   - A new backend starts polling immediately but joins the ring only
//     at its first healthy poll (reconcile), so ring ownership never
//     points at a node that cannot serve yet.
//   - A removed backend leaves the ring at once — new traffic stops
//     hashing to it — but stays polled and usable as an anti-entropy
//     source for the drain grace, then is forgotten.
//
// The ring change is the only synchronous part; data movement happens
// behind it via the anti-entropy sweep this call kicks.
func (rt *Router) SetBackends(nodes []string) error {
	if len(nodes) == 0 {
		return errors.New("fleet: no backends configured")
	}
	next := make(map[string]bool, len(nodes))
	for _, b := range nodes {
		if b == "" || next[b] {
			return fmt.Errorf("fleet: empty or duplicate backend %q", b)
		}
		next[b] = true
	}
	rt.mu.Lock()
	changed := false
	current := make(map[string]bool, len(rt.backends))
	for _, b := range rt.backends {
		current[b] = true
	}
	for _, b := range nodes {
		if current[b] {
			continue
		}
		changed = true
		if _, wasLeaving := rt.leaving[b]; wasLeaving {
			// Re-added while draining: it was healthy in the ring moments
			// ago, so it goes straight back in.
			delete(rt.leaving, b)
			rt.ring.Add(b)
		} else {
			rt.poller.Add(b)
			rt.pending[b] = true
		}
		rt.backends = append(rt.backends, b)
	}
	keep := rt.backends[:0]
	for _, b := range rt.backends {
		if next[b] {
			keep = append(keep, b)
			continue
		}
		changed = true
		if rt.pending[b] {
			// Never served: no drain needed.
			delete(rt.pending, b)
			rt.poller.Remove(b)
			continue
		}
		rt.ring.Remove(b)
		rt.leaving[b] = time.Now().Add(rt.drainGrace)
	}
	rt.backends = keep
	rt.mu.Unlock()
	if changed {
		rt.kickSweep()
	}
	return nil
}

// reconcile runs after every poll: pending backends that reached their
// first healthy poll enter the ring (kicking a sweep so their share of
// replicas migrates in), and leaving backends past their drain
// deadline are forgotten.
func (rt *Router) reconcile() {
	rt.mu.Lock()
	promoted := false
	for b := range rt.pending {
		if rt.poller.Health(b).State == StateHealthy {
			delete(rt.pending, b)
			rt.ring.Add(b)
			promoted = true
		}
	}
	now := time.Now()
	for b, deadline := range rt.leaving {
		if now.After(deadline) {
			delete(rt.leaving, b)
			rt.poller.Remove(b)
		}
	}
	rt.mu.Unlock()
	if promoted {
		rt.kickSweep()
	}
}

// hopByHop are the connection-scoped headers a proxy must not forward.
var hopByHop = map[string]bool{
	"Connection": true, "Keep-Alive": true, "Proxy-Authenticate": true,
	"Proxy-Authorization": true, "Te": true, "Trailer": true,
	"Transfer-Encoding": true, "Upgrade": true,
	// Trace-owned headers are re-derived per hop, never copied: the
	// router sets its own request ID and renders its own Server-Timing
	// (the backend's is merged under "be-", not relayed verbatim).
	"Server-Timing": true, api.HeaderRequestID: true,
}

func copyHeaders(dst, src http.Header) {
	for k, vs := range src {
		if hopByHop[k] {
			continue
		}
		for _, v := range vs {
			dst.Add(k, v)
		}
	}
}

// candidates orders the ring sequence for key by health: routable nodes
// that are not actively shedding first, then routable-but-shedding, then
// everything else (draining/dead — still tried last, because poller
// state may be stale and a request in hand beats a guaranteed 503).
// Ring order is preserved within each tier so the owner stays first.
// Warming backends not yet in the ring trail the sequence: they cannot
// own keys, but when the whole ring is down a booting node is the last
// resort that may still answer.
func (rt *Router) candidates(key string) []string {
	rt.mu.RLock()
	seq := rt.ring.Sequence(key, len(rt.backends))
	if len(seq) < len(rt.backends) {
		inSeq := make(map[string]bool, len(seq))
		for _, b := range seq {
			inSeq[b] = true
		}
		for _, b := range rt.backends {
			if !inSeq[b] {
				seq = append(seq, b)
			}
		}
	}
	rt.mu.RUnlock()
	// Snapshot each backend's tier once: querying the poller inside the
	// comparator would take its lock O(n log n) times and, worse, a
	// concurrent probe could flip a state mid-sort and break the
	// comparator's consistency.
	tier := make(map[string]int, len(seq))
	for _, b := range seq {
		h := rt.poller.Health(b)
		switch {
		case routableState(h.State) && !h.ShedRecently:
			tier[b] = 0
		case routableState(h.State):
			tier[b] = 1
		default:
			tier[b] = 2
		}
	}
	sort.SliceStable(seq, func(i, j int) bool { return tier[seq[i]] < tier[seq[j]] })
	return seq
}

// routableState mirrors Poller.Routable on a snapshot: healthy, not
// yet polled, or warming.
func routableState(s State) bool {
	return s == StateHealthy || s == StateUnknown || s == StateWarming
}

// ringOwner is the in-ring owner for key ("" on an empty ring).
func (rt *Router) ringOwner(key string) string {
	rt.mu.RLock()
	defer rt.mu.RUnlock()
	return rt.ring.Lookup(key)
}

// ringSequence is Sequence under the membership lock.
func (rt *Router) ringSequence(key string, n int) []string {
	rt.mu.RLock()
	defer rt.mu.RUnlock()
	return rt.ring.Sequence(key, n)
}

// pickStreaming chooses the backend for a non-replayable stream: the
// least-loaded (by reserved in-flight bytes) routable backend, with a
// rotating tie-break so equally-idle nodes share the traffic.
func (rt *Router) pickStreaming() string {
	backends := rt.Backends()
	start := int(rt.rr.Add(1))
	best, bestLoad := "", int64(-1)
	for tier := 0; tier < 2 && best == ""; tier++ {
		for i := range backends {
			b := backends[(start+i)%len(backends)]
			h := rt.poller.Health(b)
			// Warming nodes are excluded here: a stream gets exactly one
			// attempt, so it goes to a node known to answer.
			routable := h.State == StateHealthy || h.State == StateUnknown
			if tier == 0 && (!routable || h.ShedRecently) {
				continue
			}
			if tier == 1 && !routable {
				continue
			}
			if best == "" || h.InflightBytes < bestLoad {
				best, bestLoad = b, h.InflightBytes
			}
		}
	}
	if best == "" {
		best = backends[start%len(backends)]
	}
	return best
}

// storedResp is a rejection kept for relaying if every candidate fails.
type storedResp struct {
	status  int
	header  http.Header
	body    []byte
	backend string
}

// storeResp drains (bounded) and closes a shed response so its
// connection is reusable and its status can be relayed later.
func storeResp(resp *http.Response, backend string) *storedResp {
	body, _ := io.ReadAll(io.LimitReader(resp.Body, relayErrBodyLimit))
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	h := make(http.Header, 4)
	copyHeaders(h, resp.Header)
	// The stored body is truncated to the relay limit; the backend's
	// Content-Length would then overstate what gets written and corrupt
	// the relayed response mid-stream.
	h.Del("Content-Length")
	return &storedResp{status: resp.StatusCode, header: h, body: body, backend: backend}
}

func (sr *storedResp) write(w http.ResponseWriter) {
	// Retry-After travels in sr.header verbatim: the backend's own
	// backoff hint must reach the client unchanged.
	copyHeaders(w.Header(), sr.header)
	w.Header().Set(api.HeaderBackend, sr.backend)
	w.WriteHeader(sr.status)
	w.Write(sr.body)
}

// retryable reports whether a backend status means "try the next node":
// the daemon shed (429) or is draining (503). Anything else — success or
// a request-shaped error like 400/413 — is the client's answer.
func retryable(status int) bool {
	return status == http.StatusTooManyRequests || status == http.StatusServiceUnavailable
}

// requestDigestParam extracts a content-address reference from the
// request: the ?digest= query value, the X-Sz-Digest header, or (for
// the container endpoint) the path element. The backend validates the
// shape; the router only needs it as a ring key.
func requestDigestParam(r *http.Request, endpoint string) string {
	if d := r.URL.Query().Get(api.QueryDigest); d != "" {
		return d
	}
	if d := r.Header.Get(api.HeaderDigest); d != "" {
		return d
	}
	if endpoint == "container" {
		return strings.TrimPrefix(r.URL.Path, api.PathContainerPrefix)
	}
	return ""
}

// proxyBody handles the body-carrying endpoints. Bodies within the
// buffer limit are hashed and routed with failover — consulting the
// response cache and coalescing identical in-flight requests on the
// cacheable endpoints; larger bodies stream to a single picked backend.
// Digest-referenced requests (no body, content address in the query,
// header, or container path) ring-route by the digest itself, which is
// exactly where earlier body-carrying reads of the same container
// landed: the backend that stored it on disk.
func (rt *Router) proxyBody(endpoint string) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		rd := obs.FromContext(r.Context()).StartSpan("read_body")
		head, err := io.ReadAll(io.LimitReader(r.Body, int64(rt.bufferLimit)+1))
		rd.End()
		if err != nil {
			rt.met.request(endpoint, http.StatusBadRequest)
			rt.writeError(w, http.StatusBadRequest, fmt.Errorf("reading request body: %w", err))
			return
		}
		if len(head) > rt.bufferLimit {
			rt.forwardStream(w, r, endpoint, head)
			return
		}
		key := requestDigestParam(r, endpoint)
		digestRouted := key != "" && len(head) == 0
		if !digestRouted {
			// Body path: the body hash IS the container digest for the
			// decode-side endpoints, so both paths share ring affinity.
			sum := sha256.Sum256(head)
			key = hex.EncodeToString(sum[:])
		}
		fillDigest := ""
		if digestRouted {
			fillDigest = key
		}
		if rt.cache != nil && cacheableEndpoint[endpoint] {
			rt.serveCacheable(w, r, endpoint, key, fillDigest, head)
			return
		}
		rt.forwardReplayable(w, r, endpoint, rt.tracedCandidates(r, key), fillDigest, head)
	}
}

// tracedCandidates is candidates bracketed by a "ring" span on the
// request's trace.
func (rt *Router) tracedCandidates(r *http.Request, key string) []string {
	sp := obs.FromContext(r.Context()).StartSpan("ring")
	cands := rt.candidates(key)
	sp.End()
	return cands
}

// identityExempt marks X-Sz-* headers that do not parameterize the
// response bytes: the admission hint and the tenant identity trio.
// Including them would split the cache per caller for byte-identical
// responses (and hand a flooding tenant a cache-eviction lever).
var identityExempt = map[string]bool{
	api.HeaderContentLength: true,
	api.HeaderAPIKey:        true,
	api.HeaderPriority:      true,
	api.HeaderTenant:        true,
}

// requestIdentity builds the cache/coalescing key: the endpoint, path,
// canonicalized query, the X-Sz-* parameter headers, the body digest,
// and the negotiated representation (a slab read's Accept picks the
// compressed extent or decoded samples; szd answers Vary: Accept). Two
// requests with equal identity are guaranteed the same response bytes
// (the decode endpoints are pure functions of input and parameters).
// identityExempt headers are skipped — they shape admission and
// accounting, never the payload.
func requestIdentity(endpoint string, r *http.Request, digest string) string {
	var b strings.Builder
	b.WriteString(endpoint)
	b.WriteByte('|')
	b.WriteString(r.URL.Path)
	b.WriteByte('|')
	b.WriteString(r.URL.Query().Encode()) // Encode sorts keys
	b.WriteByte('|')
	hkeys := make([]string, 0, 4)
	for k := range r.Header {
		if strings.HasPrefix(k, api.ParamHeaderPrefix) && !identityExempt[k] {
			hkeys = append(hkeys, k)
		}
	}
	sort.Strings(hkeys)
	for _, k := range hkeys {
		b.WriteString(k)
		b.WriteByte('=')
		b.WriteString(strings.Join(r.Header.Values(k), ","))
		b.WriteByte('&')
	}
	b.WriteByte('|')
	b.WriteString(digest)
	if api.WantsSlabExtent(r.Header.Get("Accept")) {
		b.WriteString("|" + api.MediaTypeSlabExtent)
	}
	return b.String()
}

// notModifiedFromCache answers a conditional request whose If-None-Match
// covers the cached entry's ETag: content-addressed responses are
// immutable, so a match is always a 304 — no backend, no body bytes.
func (rt *Router) notModifiedFromCache(w http.ResponseWriter, r *http.Request, endpoint string, e *cacheEntry, mode string) bool {
	etag := e.header.Get("Etag")
	if etag == "" || !ifNoneMatchHas(r.Header.Get("If-None-Match"), etag) {
		return false
	}
	w.Header().Set("Etag", etag)
	w.Header().Set(api.HeaderBackend, e.backend)
	w.Header().Set(api.HeaderCache, mode)
	w.WriteHeader(http.StatusNotModified)
	rt.met.request(endpoint, http.StatusNotModified)
	return true
}

// ifNoneMatchHas reports whether an If-None-Match field value matches
// etag (comma list, wildcard, weak prefix tolerated).
func ifNoneMatchHas(inm, etag string) bool {
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

// serveCacheable answers a replayable decode-side request from the
// response cache when possible, coalesces it onto an identical in-flight
// request otherwise, and only then forwards — capturing a shareable
// response for both layers on the way back.
func (rt *Router) serveCacheable(w http.ResponseWriter, r *http.Request, endpoint, key, fillDigest string, head []byte) {
	tr := obs.FromContext(r.Context())
	id := requestIdentity(endpoint, r, key)
	sp := tr.StartSpan("cache")
	e := rt.cache.get(id)
	sp.End()
	if e != nil {
		if rt.notModifiedFromCache(w, r, endpoint, e, "hit") {
			return
		}
		rt.met.cacheHitBytes(int64(len(e.body)))
		e.writeTo(w, "hit")
		rt.met.request(endpoint, e.status)
		return
	}
	c, leader := rt.flights.join(id)
	if leader {
		var entry *cacheEntry
		// leave runs deferred so followers are released even if the
		// forward path fails in an unexpected way.
		defer func() { rt.flights.leave(id, c, entry) }()
		entry = rt.forwardCaptured(w, r, endpoint, rt.tracedCandidates(r, key), fillDigest, head)
		if entry != nil && entry.status == http.StatusOK {
			rt.cache.put(id, entry)
		}
		return
	}
	wait := tr.StartSpan("coalesce")
	select {
	case <-c.done:
	case <-r.Context().Done():
		wait.End()
		return // client gave up while waiting on the leader
	}
	wait.End()
	if e := c.entry; e != nil {
		if rt.notModifiedFromCache(w, r, endpoint, e, "coalesced") {
			return
		}
		rt.met.coalesced(endpoint)
		e.writeTo(w, "coalesced")
		rt.met.request(endpoint, e.status)
		return
	}
	// The leader's response was not shareable (oversized or an internal
	// error); fall back to an ordinary forward of our own.
	rt.forwardReplayable(w, r, endpoint, rt.tracedCandidates(r, key), fillDigest, head)
}

// proxyBodyless handles GET endpoints with no body (the codec listing):
// any routable backend can answer, with failover through the rest.
func (rt *Router) proxyBodyless(endpoint string) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		backends := rt.Backends()
		start := int(rt.rr.Add(1))
		rotated := make([]string, len(backends))
		routable := make(map[string]bool, len(backends))
		for i, b := range backends {
			rotated[i] = backends[(start+i)%len(backends)]
			routable[b] = rt.poller.Routable(b)
		}
		sort.SliceStable(rotated, func(i, j int) bool {
			return routable[rotated[i]] && !routable[rotated[j]]
		})
		rt.forwardReplayable(w, r, endpoint, rotated, "", nil)
	}
}

// forwardReplayable tries candidates in order with a fresh body per
// attempt, failing over on shed statuses and transport errors; the last
// rejection is relayed when no candidate accepts.
func (rt *Router) forwardReplayable(w http.ResponseWriter, r *http.Request, endpoint string, cands []string, fillDigest string, body []byte) {
	rt.forward(w, r, endpoint, cands, fillDigest, body, false)
}

// forwardCaptured is forwardReplayable for the cacheable path: a
// successful response within the entry limit is buffered, served to the
// client, and returned for the cache and any coalesced followers. A nil
// return means the response was served but is not shareable (oversized,
// a relayed rejection, or an internal error).
func (rt *Router) forwardCaptured(w http.ResponseWriter, r *http.Request, endpoint string, cands []string, fillDigest string, body []byte) *cacheEntry {
	return rt.forward(w, r, endpoint, cands, fillDigest, body, true)
}

func (rt *Router) forward(w http.ResponseWriter, r *http.Request, endpoint string, cands []string, fillDigest string, body []byte, capture bool) *cacheEntry {
	tr := obs.FromContext(r.Context())
	var last *storedResp
	fillTried := false
	owner := ""
	if fillDigest != "" {
		owner = rt.ringOwner(fillDigest)
	}
	for _, backend := range cands {
		if r.Context().Err() != nil {
			return nil // client went away; stop burning backends
		}
		attempt := time.Now()
		req, err := rt.buildRequest(r, backend, bytes.NewReader(body), int64(len(body)))
		if err != nil {
			rt.met.request(endpoint, http.StatusInternalServerError)
			rt.writeError(w, http.StatusInternalServerError, err)
			return nil
		}
		resp, err := rt.client.Do(req)
		if err != nil {
			if r.Context().Err() != nil {
				return nil // the client aborted; the backend is not at fault
			}
			rt.poller.MarkDead(backend)
			rt.met.failover(backend)
			tr.Observe("failover", time.Since(attempt))
			continue
		}
		// Request send + backend time-to-first-header. The relay span picks
		// up from here, so upstream+relay brackets the whole backend call.
		tr.Observe("upstream", time.Since(attempt))
		rt.met.forward(backend, endpoint)
		if retryable(resp.StatusCode) {
			last = storeResp(resp, backend)
			rt.met.failover(backend)
			tr.Observe("failover", time.Since(attempt))
			continue
		}
		if fillDigest != "" && resp.StatusCode == http.StatusNotFound {
			// A digest-referenced read missed this backend's store: a
			// ring-affinity miss (the container was compressed or first
			// read elsewhere, or the node restarted with an empty disk).
			// Keep the 404 for relaying, then try to repair the owner by
			// copying the container over from a peer that has it, and
			// retry here. Fill runs once per request; if no peer has the
			// container either, the remaining candidates' own stores are
			// still probed directly.
			last = storeResp(resp, backend)
			if !fillTried {
				fillTried = true
				fill := tr.StartSpan("peer_fill")
				filled := rt.peerFill(r, fillDigest, backend, cands)
				fill.End()
				if filled {
					if entry, served := rt.retryAfterFill(w, r, endpoint, backend, body, capture); served {
						return entry
					}
				}
			}
			continue
		}
		if fillDigest != "" && resp.StatusCode == http.StatusOK && owner != "" && backend != owner {
			// A digest read answered by a non-owner: the replica (or ring
			// walk) covered for a dead or missing owner.
			rt.met.replicationFailover(backend)
		}
		if endpoint == "container" && r.Method == http.MethodPut &&
			resp.StatusCode == http.StatusNoContent {
			// A client-uploaded container landed: fan it out to the
			// digest's R-1 successors in the background.
			if d := strings.TrimPrefix(r.URL.Path, api.PathContainerPrefix); store.ValidDigest(d) {
				rt.noteContainer(d, backend)
			}
		}
		if capture && resp.StatusCode == http.StatusOK {
			return rt.relayCaptured(w, tr, resp, backend, endpoint)
		}
		rt.relay(w, tr, resp, backend, endpoint)
		return nil
	}
	if last != nil {
		if fillDigest != "" && last.status == http.StatusNotFound {
			// Every candidate — owner, replicas, the full ring walk — came
			// up empty: the digest is not just misplaced, it is gone.
			// no_replica tells the client re-uploading is the only remedy.
			copyHeaders(w.Header(), last.header)
			w.Header().Set(api.HeaderBackend, last.backend)
			rt.met.request(endpoint, http.StatusNotFound)
			rt.writeError(w, http.StatusNotFound, &api.Error{
				Code:    api.CodeNoReplica,
				Message: fmt.Sprintf("container %s on no ring node", fillDigest),
			})
			return nil
		}
		last.write(w)
		rt.met.request(endpoint, last.status)
		return nil
	}
	rt.met.request(endpoint, http.StatusBadGateway)
	rt.writeError(w, http.StatusBadGateway,
		&api.Error{Code: api.CodeNoBackend, Message: "no reachable backend"})
	return nil
}

// peerFill repairs a ring-affinity miss: when target's store lacks a
// container some other node holds, the router copies it over through
// the content-addressed surface. Peers that fail — unreachable, reset
// mid-transfer, or simply without the container — are skipped, never
// fatal: the caller keeps walking candidates either way.
func (rt *Router) peerFill(r *http.Request, digest, target string, cands []string) bool {
	for _, peer := range cands {
		if peer == target || r.Context().Err() != nil {
			continue
		}
		if rt.copyContainer(r.Context(), digest, peer, target) {
			rt.met.peerFill(target)
			return true
		}
	}
	return false
}

// copyContainer moves one container between backends through the
// content-addressed surface: GET /v1/container from src, PUT to dst,
// digest-verified on arrival. The copy streams through — the router
// never buffers the container. Any failure (src lacks it, either side
// unreachable, digest mismatch) is false.
func (rt *Router) copyContainer(ctx context.Context, digest, src, dst string) bool {
	greq, err := http.NewRequestWithContext(ctx, http.MethodGet,
		backendURL(src)+api.PathContainerPrefix+digest, nil)
	if err != nil {
		return false
	}
	gresp, err := rt.client.Do(greq)
	if err != nil {
		return false
	}
	if gresp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, gresp.Body)
		gresp.Body.Close()
		return false
	}
	preq, err := http.NewRequestWithContext(ctx, http.MethodPut,
		backendURL(dst)+api.PathContainerPrefix+digest, gresp.Body)
	if err != nil {
		gresp.Body.Close()
		return false
	}
	if gresp.ContentLength >= 0 {
		preq.ContentLength = gresp.ContentLength
	}
	presp, err := rt.client.Do(preq)
	gresp.Body.Close()
	if err != nil {
		return false
	}
	io.Copy(io.Discard, presp.Body)
	presp.Body.Close()
	return presp.StatusCode == http.StatusNoContent
}

// containerAt probes dst for digest with a HEAD — the cheap existence
// check replication uses to skip copies a node already holds.
func (rt *Router) containerAt(ctx context.Context, dst, digest string) bool {
	req, err := http.NewRequestWithContext(ctx, http.MethodHead,
		backendURL(dst)+api.PathContainerPrefix+digest, nil)
	if err != nil {
		return false
	}
	resp, err := rt.client.Do(req)
	if err != nil {
		return false
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	return resp.StatusCode == http.StatusNoContent
}

// noteContainer records that src holds digest and, with replication
// on, kicks an async fan-out to the digest's ring owner and R-1
// successors. Calls dedup per digest for replDedupTTL: every read of a
// popular container re-announces its ETag, and one probe round per TTL
// suffices.
func (rt *Router) noteContainer(digest, src string) {
	if rt.replication <= 1 {
		return
	}
	now := time.Now()
	rt.replMu.Lock()
	if t, ok := rt.replSeen[digest]; ok && now.Sub(t) < replDedupTTL {
		rt.replMu.Unlock()
		return
	}
	if len(rt.replSeen) >= replDedupMax {
		for d, t := range rt.replSeen {
			if now.Sub(t) >= replDedupTTL {
				delete(rt.replSeen, d)
			}
		}
		if len(rt.replSeen) >= replDedupMax {
			rt.replSeen = map[string]time.Time{}
		}
	}
	rt.replSeen[digest] = now
	rt.replMu.Unlock()
	rt.replWG.Add(1)
	go func() {
		defer rt.replWG.Done()
		ctx, cancel := context.WithTimeout(context.Background(), replCopyTimeout)
		defer cancel()
		rt.replicate(ctx, digest, src, rt.met.replicationWrite)
	}()
}

// replicate copies digest from src to every one of its R ring targets
// that lacks it, counting each landed copy with record.
func (rt *Router) replicate(ctx context.Context, digest, src string, record func(backend string)) {
	for _, target := range rt.ringSequence(digest, rt.replication) {
		if target == src || ctx.Err() != nil {
			continue
		}
		if rt.containerAt(ctx, target, digest) {
			continue
		}
		if rt.copyContainer(ctx, digest, src, target) {
			record(target)
		}
	}
}

// kickSweep requests an anti-entropy sweep without blocking; a kick
// while one is pending coalesces into it.
func (rt *Router) kickSweep() {
	select {
	case rt.sweepKick <- struct{}{}:
	default:
	}
}

// sweepLoop runs anti-entropy sweeps on membership kicks and (when an
// interval is configured) on a timer.
func (rt *Router) sweepLoop() {
	defer close(rt.sweepDone)
	var tick <-chan time.Time
	if rt.aeInterval > 0 {
		t := time.NewTicker(rt.aeInterval)
		defer t.Stop()
		tick = t.C
	}
	for {
		select {
		case <-rt.sweepStop:
			return
		case <-rt.sweepKick:
		case <-tick:
		}
		rt.SweepOnce(context.Background())
	}
}

// SweepOnce runs one anti-entropy pass: it lists every tracked
// backend's container inventory — including leaving nodes, whose drain
// grace exists exactly so their data can be pulled before they vanish —
// and copies each under-replicated digest to the ring targets that lack
// it. Safe to call directly (tests, debugging); the sweep loop calls it
// on membership changes.
func (rt *Router) SweepOnce(ctx context.Context) {
	holders := map[string][]string{}
	for _, src := range rt.poller.Backends() {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet,
			backendURL(src)+api.PathContainers, nil)
		if err != nil {
			continue
		}
		resp, err := rt.client.Do(req)
		if err != nil {
			continue
		}
		var inv struct {
			Digests []string `json:"digests"`
		}
		derr := json.NewDecoder(io.LimitReader(resp.Body, 8<<20)).Decode(&inv)
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK || derr != nil {
			continue
		}
		for _, d := range inv.Digests {
			if store.ValidDigest(d) {
				holders[d] = append(holders[d], src)
			}
		}
	}
	for digest, srcs := range holders {
		if ctx.Err() != nil {
			return
		}
		has := make(map[string]bool, len(srcs))
		for _, s := range srcs {
			has[s] = true
		}
		for _, target := range rt.ringSequence(digest, rt.replication) {
			if has[target] {
				continue
			}
			for _, src := range srcs {
				if rt.copyContainer(ctx, digest, src, target) {
					rt.met.replicationRepair(target)
					break
				}
			}
		}
	}
}

// etagDigest extracts the container digest a response's ETag announces
// (header on buffered responses, trailer on streamed ones; the body is
// drained by the time callers ask). "" when absent or not a digest.
func etagDigest(resp *http.Response) string {
	etag := resp.Header.Get("Etag")
	if etag == "" {
		etag = resp.Trailer.Get("Etag")
	}
	d := strings.Trim(etag, `"`)
	if store.ValidDigest(d) {
		return d
	}
	return ""
}

// retryAfterFill re-issues the request against the just-filled backend.
// served=false means the retry still failed and the caller should keep
// failing over.
func (rt *Router) retryAfterFill(w http.ResponseWriter, r *http.Request, endpoint, backend string, body []byte, capture bool) (*cacheEntry, bool) {
	tr := obs.FromContext(r.Context())
	attempt := time.Now()
	req, err := rt.buildRequest(r, backend, bytes.NewReader(body), int64(len(body)))
	if err != nil {
		return nil, false
	}
	resp, err := rt.client.Do(req)
	if err != nil {
		return nil, false
	}
	tr.Observe("upstream", time.Since(attempt))
	rt.met.forward(backend, endpoint)
	if retryable(resp.StatusCode) || resp.StatusCode == http.StatusNotFound {
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return nil, false
	}
	if capture && resp.StatusCode == http.StatusOK {
		return rt.relayCaptured(w, tr, resp, backend, endpoint), true
	}
	rt.relay(w, tr, resp, backend, endpoint)
	return nil, true
}

// relayCaptured relays a successful backend response while buffering it
// for reuse. Responses within the entry limit are read fully before the
// first client byte (so a shared entry is always complete); larger ones
// fall back to pure streaming and are not shared. Because the body is
// fully read before headers go out, backend trailers (the ETag on
// streaming decompress responses) are promoted to plain headers — they
// reach the client earlier and travel with the cached entry.
func (rt *Router) relayCaptured(w http.ResponseWriter, tr *obs.Trace, resp *http.Response, backend, endpoint string) *cacheEntry {
	defer resp.Body.Close()
	tr.MergeServerTiming("be-", resp.Header.Get("Server-Timing"))
	sp := tr.StartSpan("relay")
	buf, err := scratch.ReadCapped(resp.Body, rt.entryLimit+1)
	if err != nil {
		sp.End()
		// The backend died mid-response. The client must see a broken
		// transfer, not a silently truncated body: headers have not been
		// written yet, so answer 502 outright.
		rt.met.request(endpoint, http.StatusBadGateway)
		rt.writeError(w, http.StatusBadGateway, fmt.Errorf("backend %s: %w", backend, err))
		return nil
	}
	if int64(len(buf)) > rt.entryLimit {
		// Too large to share: stream the prefix plus the rest through.
		copyHeaders(w.Header(), resp.Header)
		w.Header().Set(api.HeaderBackend, backend)
		w.WriteHeader(resp.StatusCode)
		w.Write(buf)
		cbuf := scratch.Bytes(256 << 10)
		io.CopyBuffer(w, resp.Body, cbuf)
		scratch.PutBytes(cbuf)
		sp.End()
		tr.MergeServerTiming("be-", resp.Trailer.Get("Server-Timing"))
		if d := etagDigest(resp); d != "" {
			rt.noteContainer(d, backend)
		}
		rt.met.request(endpoint, resp.StatusCode)
		return nil
	}
	// The body is fully read, so the backend's trailers — including its
	// Server-Timing — are in before the first client byte goes out.
	tr.MergeServerTiming("be-", resp.Trailer.Get("Server-Timing"))
	if d := etagDigest(resp); d != "" {
		// The backend just settled (or confirmed) a container: make sure
		// its replicas exist.
		rt.noteContainer(d, backend)
	}
	h := make(http.Header, 8)
	copyHeaders(h, resp.Header)
	copyHeaders(h, resp.Trailer)
	entry := &cacheEntry{status: resp.StatusCode, header: h, body: buf, backend: backend}
	copyHeaders(w.Header(), resp.Header)
	copyHeaders(w.Header(), resp.Trailer)
	w.Header().Set(api.HeaderBackend, backend)
	w.WriteHeader(resp.StatusCode)
	w.Write(buf)
	sp.End()
	rt.met.request(endpoint, resp.StatusCode)
	return entry
}

// forwardStream forwards a non-replayable stream in one attempt: head
// holds the already-buffered prefix, the rest of the client body is
// piped through.
func (rt *Router) forwardStream(w http.ResponseWriter, r *http.Request, endpoint string, head []byte) {
	backend := rt.pickStreaming()
	// The client may still be uploading while the backend's response
	// streams back; without full duplex Go's HTTP/1 server discards
	// still-unread request bytes at the first response flush.
	http.NewResponseController(w).EnableFullDuplex()
	req, err := rt.buildRequest(r, backend, io.MultiReader(bytes.NewReader(head), r.Body), -1)
	if err != nil {
		rt.met.request(endpoint, http.StatusInternalServerError)
		rt.writeError(w, http.StatusInternalServerError, err)
		return
	}
	resp, err := rt.client.Do(req)
	if err != nil {
		// Only blame the backend when the client side is still live: a
		// Do error here can equally be the client's own aborted upload,
		// and marking healthy backends dead for that lets misbehaving
		// clients knock nodes out of rotation.
		if r.Context().Err() == nil {
			rt.poller.MarkDead(backend)
			rt.met.failover(backend)
		}
		rt.met.request(endpoint, http.StatusBadGateway)
		rt.writeError(w, http.StatusBadGateway, fmt.Errorf("backend %s: %w", backend, err))
		return
	}
	rt.met.forward(backend, endpoint)
	rt.relay(w, obs.FromContext(r.Context()), resp, backend, endpoint)
}

// buildRequest clones the inbound request toward a backend.
func (rt *Router) buildRequest(r *http.Request, backend string, body io.Reader, length int64) (*http.Request, error) {
	u := backendURL(backend) + r.URL.Path
	if r.URL.RawQuery != "" {
		u += "?" + r.URL.RawQuery
	}
	req, err := http.NewRequestWithContext(r.Context(), r.Method, u, body)
	if err != nil {
		return nil, err
	}
	copyHeaders(req.Header, r.Header)
	req.Header.Del("Host")
	if t := obs.FromContext(r.Context()); t != nil {
		// Propagate the router's trace so the backend's spans join it,
		// and its logs/ring carry the same request ID.
		req.Header.Set("Traceparent", t.Traceparent())
		req.Header.Set(api.HeaderRequestID, t.RequestID)
	}
	if length >= 0 {
		req.ContentLength = length
	}
	return req, nil
}

// relay streams a backend response to the client verbatim (headers,
// status, body), tagged with the serving backend. Announced backend
// trailers — the ETag a streaming compress/decompress response settles
// on after its last body byte — are re-announced and forwarded as
// trailers once the copy finishes.
func (rt *Router) relay(w http.ResponseWriter, tr *obs.Trace, resp *http.Response, backend, endpoint string) {
	defer resp.Body.Close()
	tr.MergeServerTiming("be-", resp.Header.Get("Server-Timing"))
	copyHeaders(w.Header(), resp.Header)
	w.Header().Set(api.HeaderBackend, backend)
	tkeys := make([]string, 0, len(resp.Trailer))
	for k := range resp.Trailer {
		// Trace-owned trailers are merged into the router's own trace,
		// not relayed verbatim (see hopByHop).
		if !hopByHop[k] {
			tkeys = append(tkeys, k)
		}
	}
	if len(tkeys) > 0 {
		sort.Strings(tkeys)
		// Add, not Set: the tracing middleware already declared its own
		// Server-Timing trailer.
		w.Header().Add("Trailer", strings.Join(tkeys, ", "))
	}
	w.WriteHeader(resp.StatusCode)
	sp := tr.StartSpan("relay")
	io.CopyBuffer(w, resp.Body, make([]byte, 256<<10))
	sp.End()
	// resp.Trailer is populated now that the body is drained.
	tr.MergeServerTiming("be-", resp.Trailer.Get("Server-Timing"))
	for _, k := range tkeys {
		for _, v := range resp.Trailer.Values(k) {
			w.Header().Add(k, v)
		}
	}
	if resp.StatusCode == http.StatusOK {
		if d := etagDigest(resp); d != "" {
			// A streamed compress/decompress settled on a container digest:
			// kick its replica fan-out.
			rt.noteContainer(d, backend)
		}
	}
	rt.met.request(endpoint, resp.StatusCode)
}

func (rt *Router) handleHealthz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain")
	for _, b := range rt.Backends() {
		if rt.poller.Routable(b) {
			io.WriteString(w, "ok\n")
			return
		}
	}
	w.WriteHeader(http.StatusServiceUnavailable)
	io.WriteString(w, "no routable backends\n")
}

func (rt *Router) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	io.WriteString(w, rt.met.expose())
}

// handleLimits aggregates GET /v1/limits across the fleet: every
// routable backend's live QoS state, fetched in sequence (the fleet is
// small and the endpoint cheap), plus the summed budget. Backends that
// fail to answer are simply absent — a partial view beats a 502 when
// one node is mid-restart.
func (rt *Router) handleLimits(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		rt.writeError(w, http.StatusMethodNotAllowed,
			&api.Error{Code: api.CodeBadRequest, Message: "method not allowed"})
		return
	}
	fl := api.FleetLimits{Backends: map[string]api.Limits{}}
	for _, b := range rt.Backends() {
		if !rt.poller.Routable(b) {
			continue
		}
		req, err := http.NewRequestWithContext(r.Context(), http.MethodGet,
			backendURL(b)+api.PathLimits, nil)
		if err != nil {
			continue
		}
		resp, err := rt.client.Do(req)
		if err != nil {
			continue
		}
		var lim api.Limits
		derr := json.NewDecoder(io.LimitReader(resp.Body, 1<<20)).Decode(&lim)
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK || derr != nil {
			continue
		}
		fl.Backends[b] = lim
		fl.BudgetBytes += lim.BudgetBytes
	}
	if len(fl.Backends) == 0 {
		rt.writeError(w, http.StatusServiceUnavailable,
			&api.Error{Code: api.CodeNoBackend, Message: "no routable backend answered /v1/limits"})
		return
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(fl)
}

// writeError renders err as the shared JSON envelope, stamping the
// request ID the tracing middleware already placed on the response.
func (rt *Router) writeError(w http.ResponseWriter, status int, err error) {
	e := api.Wrap(status, err)
	if e.RequestID == "" {
		e.RequestID = w.Header().Get(api.HeaderRequestID)
	}
	api.WriteError(w, e)
}

// routerMetrics counts the router's own traffic on the shared obs
// registry; backend health and response-cache gauges are sampled live at
// exposition time. The szrouter_* family names and label orders predate
// the registry and are scrape-contract for CI and dashboards — only the
// emitter moved.
type routerMetrics struct {
	reg           *obs.Registry
	forwards      *obs.Vec
	failovers     *obs.Vec
	requests      *obs.Vec
	coalesces     *obs.Vec
	hitBytes      *obs.Vec
	fills         *obs.Vec
	tenants       *obs.Vec
	replWrites    *obs.Vec
	replRepairs   *obs.Vec
	replFailovers *obs.Vec
	stages        *obs.HistVec
}

func newRouterMetrics(p *Poller, cache *respCache) *routerMetrics {
	r := obs.NewRegistry()
	m := &routerMetrics{
		reg: r,
		forwards: r.Counter("szrouter_forwards_total",
			"Attempts forwarded, by backend and endpoint.", "backend", "endpoint"),
		failovers: r.Counter("szrouter_failovers_total",
			"Attempts diverted away from a backend (shed or unreachable).", "backend"),
		requests: r.Counter("szrouter_requests_total",
			"Client requests by endpoint and final status.", "endpoint", "status"),
		coalesces: r.Counter("szrouter_coalesced_total",
			"Requests served off an identical in-flight request's response.", "endpoint"),
		hitBytes: r.Counter("szrouter_cache_hit_bytes_total",
			"Body bytes served from the router response cache."),
		fills: r.Counter("szrouter_peer_fills_total",
			"Containers copied into a backend's store from a peer on a ring-affinity miss.", "backend"),
	}
	// Backend gauges read the poller's live membership at exposition
	// time, so added and removed nodes appear and vanish with the set.
	r.Func("szrouter_backend_state", "Backend health (0 unknown, 1 healthy, 2 draining, 3 dead, 4 warming).",
		"gauge", []string{"backend"}, func(emit func(float64, ...string)) {
			for _, bk := range p.Backends() {
				emit(float64(p.Health(bk).State), bk)
			}
		})
	r.Func("szrouter_backend_inflight_bytes", "Last-scraped reserved budget per backend.",
		"gauge", []string{"backend"}, func(emit func(float64, ...string)) {
			for _, bk := range p.Backends() {
				emit(float64(p.Health(bk).InflightBytes), bk)
			}
		})
	if cache != nil {
		stat := func(pick func(bytes, entries, hits, misses, evictions int64) int64) func(func(float64, ...string)) {
			return func(emit func(float64, ...string)) {
				emit(float64(pick(cache.stats())))
			}
		}
		r.Func("szrouter_cache_hits_total", "Responses served from the router cache.",
			"counter", nil, stat(func(_, _, h, _, _ int64) int64 { return h }))
		r.Func("szrouter_cache_misses_total", "Cacheable requests that missed the cache.",
			"counter", nil, stat(func(_, _, _, mi, _ int64) int64 { return mi }))
		r.Func("szrouter_cache_evictions_total", "Entries evicted to hold the byte budget.",
			"counter", nil, stat(func(_, _, _, _, ev int64) int64 { return ev }))
		r.Func("szrouter_cache_bytes", "Bytes currently held by the response cache.",
			"gauge", nil, stat(func(by, _, _, _, _ int64) int64 { return by }))
		r.Func("szrouter_cache_entries", "Entries currently held by the response cache.",
			"gauge", nil, stat(func(_, en, _, _, _ int64) int64 { return en }))
	}
	m.stages = r.Histogram("szrouter_stage_seconds",
		"Per-stage latency from request traces, by endpoint and stage.",
		obs.StageBuckets, "endpoint", "stage")
	// Registered after every pre-existing family so their exposition
	// positions hold (scrape-compat); malformed credentials count under
	// the fixed "invalid" tenant.
	m.tenants = r.Counter("szrouter_tenant_requests_total",
		"Client requests by resolved tenant and final status.", "tenant", "status")
	m.replWrites = r.Counter("szrouter_replication_writes_total",
		"Replica copies landed by the write-path fan-out, by destination backend.", "backend")
	m.replRepairs = r.Counter("szrouter_replication_repairs_total",
		"Replica copies landed by the anti-entropy sweep, by destination backend.", "backend")
	m.replFailovers = r.Counter("szrouter_replication_failovers_total",
		"Digest reads served by a non-owner replica, by serving backend.", "backend")
	obs.RegisterRuntime(r, "szrouter")
	return m
}

func (m *routerMetrics) replicationWrite(backend string) { m.replWrites.Inc(backend) }

func (m *routerMetrics) replicationRepair(backend string) { m.replRepairs.Inc(backend) }

func (m *routerMetrics) replicationFailover(backend string) { m.replFailovers.Inc(backend) }

func (m *routerMetrics) tenantRequest(tenant string, status int) {
	m.tenants.Inc(tenant, strconv.Itoa(status))
}

func (m *routerMetrics) coalesced(endpoint string) { m.coalesces.Inc(endpoint) }

func (m *routerMetrics) cacheHitBytes(n int64) { m.hitBytes.Add(float64(n)) }

func (m *routerMetrics) peerFill(backend string) { m.fills.Inc(backend) }

func (m *routerMetrics) forward(backend, endpoint string) { m.forwards.Inc(backend, endpoint) }

func (m *routerMetrics) failover(backend string) { m.failovers.Inc(backend) }

func (m *routerMetrics) request(endpoint string, status int) {
	m.requests.Inc(endpoint, strconv.Itoa(status))
}

// recordStages feeds a finished trace's spans into the per-stage
// histograms; aggregated spans observe their summed duration once.
func (m *routerMetrics) recordStages(t *obs.Trace) {
	if t == nil {
		return
	}
	for _, sp := range t.Spans() {
		m.stages.ObserveDuration(sp.Dur, t.Endpoint, sp.Name)
	}
}

func (m *routerMetrics) expose() string { return m.reg.Expose() }
