package main

// The four workloads. Each set-up function prepares a started fleet
// (data generation and pre-ingest are part of set-up) and returns the
// function that drives the measured window.

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"sort"
	"sync/atomic"
	"time"

	"repro/internal/client"
	"repro/internal/codec"
)

// scale sizes every workload. The full scale keeps the relations the
// workloads rely on (cold_read's decoded working set at least 4× the
// router's 64 MiB cache, hot_slabs' inside it, rebalance_read's decoded
// set above it); the tiny scale is a smoke test and does not.
type scale struct {
	dims     []int // the main field: 50×250×250 float32, 12.5 MB raw
	slabRows int   // 10 rows: 5 slabs of 2.5 MB

	coldBases      int
	coldContainers int // odd, so every container is read both whole and by slab

	hotUsers int
	// ladder is hot_slabs' offered rates in ops/s; the first is the
	// nominal rung the latency metrics report.
	ladder []float64

	smallDims           []int // rebalance_read's small containers
	smallBases          int
	rebalanceContainers int

	setupReps int // set-ups per untraced run; setup_s is their median
}

func scaleFor(tiny bool) scale {
	if tiny {
		return scale{
			dims: []int{10, 40, 40}, slabRows: 2,
			coldBases: 2, coldContainers: 5,
			hotUsers: 4, ladder: []float64{20, 40},
			smallDims: []int{4, 16, 16}, smallBases: 2, rebalanceContainers: 40,
			setupReps: 2,
		}
	}
	return scale{
		dims: []int{50, 250, 250}, slabRows: 10,
		coldBases: 4, coldContainers: 23,
		hotUsers: 16, ladder: []float64{50, 100, 800},
		smallDims: []int{16, 125, 125}, smallBases: 8, rebalanceContainers: 120,
		setupReps: 3,
	}
}

const (
	// ingestBases is how many generated fields ingest cycles through.
	ingestBases = 2
	// hotContainers × slabs are hot_slabs' keys.
	hotContainers = 2
	// hotZipf is the skew of hot_slabs' key popularity.
	hotZipf = 1.1
	// tailLimit is hot_slabs' latency limit on op_tail_ms, and on how
	// long a rung may take to drain after its last arrival.
	tailLimit = 500 * time.Millisecond
)

// env is what a workload's set-up gets.
type env struct {
	sc     scale
	seed   int64
	traced bool
	tr     *http.Transport // shared by every client
	log    io.Writer
}

// windowResult is what a measured window produced.
type windowResult struct {
	ops []*op
	// nominal are the ops the latency and throughput metrics cover, over
	// nominalWall: every op for a closed loop, the nominal rung's for
	// hot_slabs.
	nominal     []*op
	nominalWall time.Duration
	late        []time.Duration // generator lateness per op
	maxRate     float64         // ops/s; 0 for a closed loop, whose rate is what it ran at
	// containerRaw and containerBytes give the compression factor of the
	// containers the window moved.
	containerRaw, containerBytes int64
}

type workload struct {
	name  string
	setup func(e *env, f *fleetT) (func(deadline time.Time) (*windowResult, error), error)
	// warm runs the window's load for warmUp before the measured window,
	// so the heap, the connections and the fleet's pools are at their
	// steady state when timing starts. hot_slabs warms its caches in
	// set-up instead, and rebalance_read must start right after its live
	// add.
	warm bool
}

// warmUp is how long a warmed workload runs before its measured window.
const warmUp = 3 * time.Second

var workloads = []workload{
	{"ingest", setupIngest, true},
	{"cold_read", setupColdRead, true},
	{"hot_slabs", setupHotSlabs, false},
	{"rebalance_read", setupRebalanceRead, false},
}

func workloadNames() []string {
	var out []string
	for _, w := range workloads {
		out = append(out, w.name)
	}
	return out
}

func lookup(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q (want one of %v)", name, workloadNames())
}

// seeds derives n generator seeds for one workload from the run seed.
func seeds(seed int64, salt, n int) []int64 {
	out := make([]int64, n)
	for i := range out {
		out[i] = seed*1_000_003 + int64(salt)*1009 + int64(i)
	}
	return out
}

// compressOp streams variant v of f through client.NewWriter in 1 MiB
// writes, as a producer would, and hands the finished container to
// keep when keep is set. Verification checks the digest against the
// returned bytes and the decoded samples against the bound.
func compressOp(f *field, v int, fl *fleetT, keep func(*container)) func(u *user, o *op) error {
	return func(u *user, o *op) error {
		dst := bytes.NewBuffer(make([]byte, 0, len(f.raw)/8))
		w, err := u.c.NewWriter(context.Background(), dst, "blocked", f.params())
		if err != nil {
			return err
		}
		if err := writeChunks(w, f.head(v), f.raw[4:]); err != nil {
			w.(interface{ Abort() error }).Abort()
			return err
		}
		if err := w.Close(); err != nil {
			return err
		}
		digest, sum := w.(client.Digester).Digest(), sha256Hex(dst.Bytes())
		o.raw = f.rawBytes()
		o.verify = func() (float64, error) {
			if sum != digest {
				return 0, fmt.Errorf("container digest %q, returned bytes hash to %s", digest, sum)
			}
			// The returned bytes hash to the digest, so the store entry
			// under it holds the same bytes: decode that rather than keep
			// every container in memory through the window.
			b, err := fl.stored(digest)
			if err != nil {
				return 0, err
			}
			ref := decodeReference(&container{base: f, variant: v, digest: digest, bytes: b})
			return ref.maxErr, ref.err
		}
		if keep != nil {
			keep(&container{base: f, variant: v, digest: digest, bytes: bytes.Clone(dst.Bytes())})
		}
		return nil
	}
}

func writeChunks(w io.Writer, head, rest []byte) error {
	if _, err := w.Write(head); err != nil {
		return err
	}
	for len(rest) > 0 {
		n := min(len(rest), 1<<20)
		if _, err := w.Write(rest[:n]); err != nil {
			return err
		}
		rest = rest[n:]
	}
	return nil
}

// decompressOp reads container c whole by digest.
func decompressOp(refs *references, c *container) func(u *user, o *op) error {
	return func(u *user, o *op) error {
		rc, err := u.c.DecompressAt(context.Background(), c.digest, "", codec.Params{})
		if err != nil {
			return err
		}
		b, err := u.readAll(rc)
		if err != nil {
			return err
		}
		n, sum := len(b), checksum(b)
		o.raw = int64(n)
		o.verify = func() (float64, error) { return refs.checkWhole(c, n, sum) }
		return nil
	}
}

// slabOp reads raw slab s of c by digest.
func slabOp(refs *references, c *container, s int) func(u *user, o *op) error {
	return func(u *user, o *op) error {
		rc, err := u.c.ReadSlabAt(context.Background(), c.digest, s, s)
		if err != nil {
			return err
		}
		b, err := u.readAll(rc)
		if err != nil {
			return err
		}
		n, sum := len(b), checksum(b)
		o.raw = int64(n)
		o.verify = func() (float64, error) { return refs.checkSlab(c, s, n, sum) }
		return nil
	}
}

// extentOp reads slab s of c as a compressed extent and decodes it in
// the client.
func extentOp(refs *references, c *container, s int) func(u *user, o *op) error {
	return func(u *user, o *op) error {
		ext, err := u.c.ReadSlabExtent(context.Background(), c.digest, s, s)
		if err != nil {
			return err
		}
		b, err := ext.Decode()
		if err != nil {
			return err
		}
		n, sum := len(b), checksum(b)
		o.raw = int64(n)
		o.verify = func() (float64, error) { return refs.checkSlab(c, s, n, sum) }
		return nil
	}
}

// preIngest compresses variant i of bases[i%len(bases)] for i < n
// through the router with two clients, then waits until every container
// sits on its R ring targets.
func preIngest(e *env, f *fleetT, bases []*field, n int) ([]*container, error) {
	users, err := newUsers(clientConns, "http://"+f.front.addr, e.tr, false)
	if err != nil {
		return nil, err
	}
	out := make([]*container, n)
	ops := closedLoop(users, time.Now().Add(time.Hour), func(i, k int) func(u *user, o *op) error {
		idx := i + k*len(users)
		if idx >= n {
			return nil
		}
		return compressOp(bases[idx%len(bases)], idx, f, func(c *container) { out[idx] = c })
	})
	for _, o := range ops {
		if o.err != nil {
			return nil, fmt.Errorf("pre-ingest: %w", o.err)
		}
	}
	digests := make([]string, n)
	for i, c := range out {
		if c == nil || c.digest == "" {
			return nil, errors.New("pre-ingest: a container came back without a digest")
		}
		digests[i] = c.digest
	}
	return out, f.waitReplicated(digests, time.Minute)
}

// ingest: two clients in a closed loop, each streaming distinct 12.5 MB
// fields through client.NewWriter → router → szd, with the store and
// R=2 replication on.
func setupIngest(e *env, f *fleetT) (func(time.Time) (*windowResult, error), error) {
	bases := genFields(e.sc.dims, e.sc.slabRows, seeds(e.seed, 1, ingestBases))
	users, err := newUsers(clientConns, "http://"+f.front.addr, e.tr, e.traced)
	if err != nil {
		return nil, err
	}
	// Variants stay distinct across the warm-up and the window.
	var next atomic.Int64
	return func(deadline time.Time) (*windowResult, error) {
		ops := closedLoop(users, deadline, func(i, k int) func(u *user, o *op) error {
			v := int(next.Add(1))
			return compressOp(bases[v%len(bases)], v, f, nil)
		})
		var raw, stored int64
		for _, o := range ops {
			if o.err == nil {
				raw, stored = raw+o.raw, stored+o.wire // the response body is the container
			}
		}
		return closedResult(ops, raw, stored), nil
	}, nil
}

// closedResult fills in a closed loop's result: all ops are nominal.
func closedResult(ops []*op, raw, stored int64) *windowResult {
	w := &windowResult{ops: ops, nominal: ops, containerRaw: raw, containerBytes: stored}
	if len(ops) == 0 {
		return w
	}
	first, last := ops[0].due, ops[0].end
	for _, o := range ops {
		if o.due.Before(first) {
			first = o.due
		}
		if o.end.After(last) {
			last = o.end
		}
		w.late = append(w.late, o.start.Sub(o.due))
	}
	w.nominalWall = last.Sub(first)
	return w
}

// cold_read: two clients in a closed loop make one whole-field
// DecompressAt to every seven raw ReadSlabAt by digest, cycling from a
// seeded start over a working set far larger than the router cache, so
// every read is decoded on a backend.
func setupColdRead(e *env, f *fleetT) (func(time.Time) (*windowResult, error), error) {
	bases := genFields(e.sc.dims, e.sc.slabRows, seeds(e.seed, 2, e.sc.coldBases))
	ctrs, err := preIngest(e, f, bases, e.sc.coldContainers)
	if err != nil {
		return nil, err
	}
	users, err := newUsers(clientConns, "http://"+f.front.addr, e.tr, e.traced)
	if err != nil {
		return nil, err
	}
	refs := newReferences()
	start := rand.New(rand.NewSource(e.seed)).Intn(len(ctrs))
	// Both users take their reads from one cycle, so no read repeats
	// another's key while it may still be cached: a (container, slab)
	// key comes round again only after a pass over every container and
	// slab. The position carries on from the warm-up into the window.
	var next atomic.Int64
	return func(deadline time.Time) (*windowResult, error) {
		var raw, stored atomic.Int64
		ops := closedLoop(users, deadline, func(i, k int) func(u *user, o *op) error {
			pos := start + int(next.Add(1)-1)
			c := ctrs[pos%len(ctrs)]
			slabs := c.base.numSlabs()
			if pos%8 == 0 {
				raw.Add(c.base.rawBytes())
				stored.Add(int64(len(c.bytes)))
				return decompressOp(refs, c)
			}
			raw.Add(c.base.rawBytes() / int64(slabs))
			stored.Add(int64(len(c.bytes)) / int64(slabs))
			return slabOp(refs, c, (pos/len(ctrs))%slabs)
		})
		return closedResult(ops, raw.Load(), stored.Load()), nil
	}, nil
}

// hot_slabs: an open loop of simulated users, each with its own
// client.Client, reading Zipf-skewed (container, slab) keys whose whole
// working set fits in the router cache; every key gets raw ReadSlabAt
// reads and compressed ReadSlabExtent reads decoded in the client. The
// window climbs a fixed rate ladder and stops at the first rung that
// misses the latency limit or leaves a backlog.
func setupHotSlabs(e *env, f *fleetT) (func(time.Time) (*windowResult, error), error) {
	bases := genFields(e.sc.dims, e.sc.slabRows, seeds(e.seed, 3, hotContainers))
	ctrs, err := preIngest(e, f, bases, hotContainers)
	if err != nil {
		return nil, err
	}
	users, err := newUsers(e.sc.hotUsers, "http://"+f.front.addr, e.tr, e.traced)
	if err != nil {
		return nil, err
	}
	refs := newReferences()
	slabs := bases[0].numSlabs()
	keys := len(ctrs) * slabs
	// Which keys are hot is part of the seeded input.
	rank := rand.New(rand.NewSource(e.seed)).Perm(keys)
	// Warm the router cache before timing, one read per key: compressed
	// extents for even popularity ranks, raw slabs for odd ones. The
	// cache keys both representations alike, so this fixes which one
	// each key serves from then on — and with it the share of reads that
	// get the wrong representation, instead of leaving it to whichever
	// read of the hottest key a seed happens to send first.
	warm, err := newUser("http://"+f.front.addr, e.tr, false)
	if err != nil {
		return nil, err
	}
	for r, key := range rank {
		fn := slabOp(refs, ctrs[key/slabs], key%slabs)
		if r%2 == 0 {
			fn = extentOp(refs, ctrs[key/slabs], key%slabs)
		}
		o := &op{}
		if warm.do(o, fn); o.err != nil {
			return nil, fmt.Errorf("warming the router cache: %w", o.err)
		}
	}
	// Then each user reads every key raw once, so its revalidation cache
	// is warm too and the window's raw reads are If-None-Match → 304.
	for _, u := range users {
		for key := range rank {
			o := &op{}
			if u.do(o, slabOp(refs, ctrs[key/slabs], key%slabs)); o.err != nil {
				return nil, fmt.Errorf("warming the client caches: %w", o.err)
			}
		}
	}
	return func(deadline time.Time) (*windowResult, error) {
		w := &windowResult{}
		// The nominal rung, which the latency metrics report, gets half
		// the window; the other rungs share the rest.
		window := time.Until(deadline)
		for r, rate := range e.sc.ladder {
			rungDur := window / 2 / time.Duration(len(e.sc.ladder)-1)
			if r == 0 {
				rungDur = window / 2
			}
			arrivals := schedule(rand.New(rand.NewSource(e.seed*7919+int64(r))), rate, rungDur, len(users), keys)
			for i := range arrivals {
				arrivals[i].key = rank[arrivals[i].key]
			}
			begin := time.Now()
			ops, late := openLoop(users, arrivals, func(a arrival) func(u *user, o *op) error {
				c := ctrs[a.key/slabs]
				if a.alt {
					return extentOp(refs, c, a.key%slabs)
				}
				return slabOp(refs, c, a.key%slabs)
			})
			w.ops = append(w.ops, ops...)
			w.late = append(w.late, late...)
			if r == 0 {
				w.nominal, w.nominalWall = ops, rungDur
			}
			lats := make([]time.Duration, len(ops))
			errs := 0
			var lastEnd time.Time
			for i, o := range ops {
				lats[i] = o.latency()
				if o.err != nil {
					errs++
				}
				if o.end.After(lastEnd) {
					lastEnd = o.end
				}
			}
			tail, _, _ := tailOf(lats)
			backlog := lastEnd.Sub(begin.Add(rungDur))
			fmt.Fprintf(e.log, "hot_slabs rung %g ops/s: %d ops, p50 %.2f ms, tail %.2f ms, drain %.2f ms, %d errors\n",
				rate, len(ops), ms(percentile(lats, 50)), ms(tail), ms(backlog), errs)
			if errs > 0 || tail > tailLimit || backlog > tailLimit {
				break
			}
			w.maxRate = rate
		}
		w.containerRaw, w.containerBytes = containerTotals(ctrs)
		return w, nil
	}, nil
}

// containerTotals sums the raw and stored sizes of a container set.
func containerTotals(ctrs []*container) (raw, stored int64) {
	for _, c := range ctrs {
		raw += c.base.rawBytes()
		stored += int64(len(c.bytes))
	}
	return raw, stored
}

// schedule spaces rate×d arrivals evenly over d and deals them to the
// users in turn. The mix is stratified rather than sampled, so every
// run offers the same one: key rank r gets its Zipf(hotZipf) share of
// the arrivals, a quarter of each key's arrivals (rounded) are alt, and
// the seeded rng only shuffles their order.
func schedule(rng *rand.Rand, rate float64, d time.Duration, users, keys int) []arrival {
	n := int(rate * d.Seconds())
	weights := make([]float64, keys)
	total := 0.0
	for r := range weights {
		weights[r] = math.Pow(float64(r+1), -hotZipf)
		total += weights[r]
	}
	out := make([]arrival, 0, n)
	for r := keys - 1; r >= 0; r-- {
		count := int(math.Round(float64(n) * weights[r] / total))
		if r == 0 {
			count = n - len(out) // the hottest key takes the rounding slack
		}
		for i := 0; i < count; i++ {
			out = append(out, arrival{key: r, alt: i < (count+2)/4})
		}
	}
	rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	for i := range out {
		out[i].at = time.Duration(float64(i) / rate * float64(time.Second))
		out[i].user = i % users
	}
	return out
}

// rebalance_read: after set-up an empty fourth szd is live-added, then
// every small stored container is read by digest exactly once; the
// share whose ring owner is the new node misses there and goes through
// the router's synchronous peer fill and retry. When a pass over the
// containers ends inside the window, the fourth node is replaced by a
// fresh empty one and the next pass starts.
func setupRebalanceRead(e *env, f *fleetT) (func(time.Time) (*windowResult, error), error) {
	bases := genFields(e.sc.smallDims, e.sc.smallDims[0], seeds(e.seed, 4, e.sc.smallBases))
	ctrs, err := preIngest(e, f, bases, e.sc.rebalanceContainers)
	if err != nil {
		return nil, err
	}
	users, err := newUsers(clientConns, "http://"+f.front.addr, e.tr, e.traced)
	if err != nil {
		return nil, err
	}
	refs := newReferences()
	// One fixed order for every pass: each container's decoded output is
	// then a full pass of other reads (above the router cache's budget)
	// away from its previous read.
	order := rand.New(rand.NewSource(e.seed)).Perm(len(ctrs))
	return func(deadline time.Time) (*windowResult, error) {
		var all []*op
		for time.Now().Before(deadline) {
			if _, err := f.liveAdd(context.Background()); err != nil {
				return nil, err
			}
			ops := closedLoop(users, deadline, func(i, k int) func(u *user, o *op) error {
				pos := i + k*len(users)
				if pos >= len(order) {
					return nil
				}
				return decompressOp(refs, ctrs[order[pos]])
			})
			all = append(all, ops...)
		}
		raw, stored := containerTotals(ctrs)
		return closedResult(all, raw, stored), nil
	}, nil
}

// tailOf returns the highest of the standard percentiles that has at
// least ten samples beyond it, the percentile itself and how many
// samples lie beyond it. Fewer than 20 samples report the maximum.
func tailOf(lats []time.Duration) (time.Duration, float64, int) {
	if len(lats) == 0 {
		return 0, 0, 0
	}
	s := sortedDurations(lats)
	for _, p := range []float64{99.9, 99, 95, 90, 75, 50} {
		beyond := int(float64(len(s)) * (1 - p/100))
		if beyond >= 10 {
			return s[len(s)-1-beyond], p, beyond
		}
	}
	return s[len(s)-1], 100, 0
}

// median returns the middle value of xs (the mean of the two middle
// values for an even count).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
