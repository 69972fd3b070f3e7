package main

// The traced run's per-layer split. It is taken from outside the
// program, from three sources: the merged Server-Timing every response
// carries (router spans, backend spans under "be-", and each tier's
// "total"), /metrics counter deltas of both tiers, and the benchmark's
// own timed calls into public functions of internal/core,
// internal/blocked, internal/store and internal/client.

import (
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"repro/internal/blocked"
	"repro/internal/client"
	"repro/internal/core"
	"repro/internal/grid"
	"repro/internal/store"
)

// sumCheckLimit is the share of client-observed op time the per-layer
// self times may leave unattributed before the sum check fails.
const sumCheckLimit = 0.10

// opSplit is one op's time divided over the layers on its blocking
// path, in milliseconds. Router stages come from the router's own
// spans; everything the router spent inside its backend call (upstream
// plus relay) that the backend's total also covers is counted once, as
// backend time, and the part counted once instead of twice is overlap.
type opSplit map[string]float64

func splitOp(o *op) (opSplit, float64) {
	e := ms(o.end.Sub(o.start))
	if len(o.timing) == 0 {
		// No Server-Timing reached the client (a bare 304 carries none):
		// nothing can be attributed.
		return opSplit{}, e
	}
	t := map[string]float64{}
	for _, en := range o.timing {
		t[en.Name] += ms(en.Dur)
	}
	s := opSplit{}
	for _, k := range []string{"read_body", "ring", "cache", "coalesce", "upstream", "relay", "peer_fill", "failover"} {
		s["fleet."+k] = t[k]
	}
	for _, k := range []string{"admission", "encode", "decode", "store_read", "store_write", "mmap_serve"} {
		s["server."+k] = t["be-"+k]
	}
	call := t["upstream"] + t["relay"]
	be := t["be-total"]
	own := t["read_body"] + t["ring"] + t["cache"] + t["coalesce"] + t["peer_fill"] + t["failover"]
	router, ok := t["total"]
	if !ok {
		// Responses with a Content-Length carry the router's timing as a
		// header written before the body, without the total.
		router = own + math.Max(call, be)
	}
	stages := 0.0
	for _, k := range []string{"admission", "encode", "decode", "store_read", "store_write", "mmap_serve"} {
		stages += t["be-"+k]
	}
	s["client.self"] = math.Max(0, e-router)
	s["fleet.proxy"] = math.Max(0, call-be)
	s["fleet.self"] = math.Max(0, router-own-math.Max(call, be))
	s["server.self"] = math.Max(0, be-stages)
	// Overlap: router call time that ran concurrently with backend work
	// (a streamed relay under the encode), and backend stage spans that
	// nest or overlap inside the backend total.
	s["bench.overlap"] = math.Min(call, be) + math.Max(0, stages-be)
	attributed := s["client.self"] + own + s["fleet.proxy"] + s["fleet.self"] + stages - math.Max(0, stages-be) + s["server.self"]
	return s, e - attributed
}

// perLayer computes the traced run's metrics over the ops the
// end-to-end latency covers (hot_slabs: its nominal rung).
func perLayer(workload string, plain, traced, plain2 *phase, log io.Writer) *result {
	ops := traced.win.nominal
	n := float64(len(ops))
	sum := opSplit{}
	var total, unattributed, raw float64
	var revalidated, refused int
	for _, o := range ops {
		s, un := splitOp(o)
		for k, v := range s {
			sum[k] += v
		}
		total += ms(o.end.Sub(o.start))
		unattributed += un
		if o.delivered() {
			raw += float64(o.raw)
		}
		if o.revalidated {
			revalidated++
		}
		refused += int(o.refused)
	}
	mean := func(k string) float64 { return sum[k] / n }
	tail, _, _ := opTail(ops, traced.win.nominalWall)
	d := traced.delta
	failed, attempted := 0, 0
	for _, ph := range []*phase{plain, traced, plain2} {
		failed += ph.failed
		attempted += len(ph.win.ops)
	}
	m := map[string]metric{
		"client.self_ms":          {mean("client.self"), "ms"},
		"client.revalidated_frac": {float64(revalidated) / n, "frac"},
		"client.retries":          {float64(refused), "count"},

		"fleet.read_body_ms": {mean("fleet.read_body"), "ms"},
		"fleet.ring_us":      {1000 * mean("fleet.ring"), "us"},
		"fleet.cache_us":     {1000 * mean("fleet.cache"), "us"},
		"fleet.coalesce_ms":  {mean("fleet.coalesce"), "ms"},
		"fleet.upstream_ms":  {mean("fleet.upstream"), "ms"},
		"fleet.relay_ms":     {mean("fleet.relay"), "ms"},
		"fleet.self_ms":      {mean("fleet.self") + mean("fleet.proxy"), "ms"},
		"fleet.peer_fill_ms": {mean("fleet.peer_fill"), "ms"},
		"fleet.failover_ms":  {mean("fleet.failover"), "ms"},
		"fleet.cache_hit_ratio": {ratio(d["szrouter_cache_hits_total"],
			d["szrouter_cache_hits_total"]+d["szrouter_cache_misses_total"]), "frac"},
		"fleet.coalesced":          {d["szrouter_coalesced_total"], "count"},
		"fleet.cache_evictions":    {d["szrouter_cache_evictions_total"], "count"},
		"fleet.failovers":          {d["szrouter_failovers_total"], "count"},
		"fleet.peer_fills":         {d["szrouter_peer_fills_total"], "count"},
		"fleet.owner_miss_frac":    {d["szrouter_peer_fills_total"] / n, "frac"},
		"fleet.replication_writes": {d["szrouter_replication_writes_total"], "count"},

		"server.admission_us":   {1000 * mean("server.admission"), "us"},
		"server.encode_ms":      {mean("server.encode"), "ms"},
		"server.decode_ms":      {mean("server.decode"), "ms"},
		"server.store_read_us":  {1000 * mean("server.store_read"), "us"},
		"server.store_write_ms": {mean("server.store_write"), "ms"},
		"server.mmap_serve_us":  {1000 * mean("server.mmap_serve"), "us"},
		"server.self_ms":        {mean("server.self"), "ms"},
		"server.sheds":          {d["szd_sheds"], "count"},

		"store.hits":               {d["szd_store_hits_total"], "count"},
		"store.misses":             {d["szd_store_misses_total"], "count"},
		"store.bytes_per_raw_byte": {d["szd_store_bytes"] / raw, "ratio"},

		"bench.overlap_ms":        {mean("bench.overlap"), "ms"},
		"bench.unattributed_frac": {unattributed / total, "frac"},
		"bench.gen_late_ms":       {ms(percentile(traced.win.late, 99)), "ms"},
		"bench.op_tail_ms":        {tail, "ms"},
		"bench.failed_frac":       {float64(failed) / float64(attempted), "frac"},
		"obs.trace_overhead_frac": {overhead(plain, traced, plain2), "frac"},
	}
	for k, v := range traced.layers {
		m[k] = v
	}
	verdict := "holds"
	if math.Abs(unattributed/total) > sumCheckLimit {
		verdict = "FAILS"
	}
	fmt.Fprintf(log, "%s sum check %s: per-layer self times leave %.2f%% of %.1f ms mean op time unattributed (limit %.0f%%)\n",
		workload, verdict, 100*unattributed/total, total/n, 100*sumCheckLimit)
	return &result{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: m}
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// overhead is the traced phase's median op latency over the mean of
// the plain phases', minus one.
func overhead(plain, traced, plain2 *phase) float64 {
	lat := func(ph *phase) float64 {
		l := make([]time.Duration, len(ph.win.nominal))
		for i, o := range ph.win.nominal {
			l[i] = o.latency()
		}
		return ms(percentile(l, 50))
	}
	return lat(traced)/((lat(plain)+lat(plain2))/2) - 1
}

// layerPass times single calls into the codec, container, store and
// client layers on one generated main field: the median of three
// passes each, plus the single-thread codec baseline.
func layerPass(sc scale, seed int64, dir string) (map[string]metric, error) {
	f := genFields(sc.dims, sc.slabRows, seeds(seed, 5, 1))[0]
	arr := grid.New(f.dims...)
	for i, v := range f.data {
		arr.Data[i] = float64(v)
	}
	slab, err := arr.Slab(0, f.slabRows)
	if err != nil {
		return nil, err
	}
	times := map[string][]float64{}
	add := func(k string, d time.Duration) { times[k] = append(times[k], ms(d)) }
	var st *blocked.Stats
	for rep := 0; rep < 3; rep++ {
		var huff time.Duration
		cp := core.Params{Mode: core.BoundAbs, AbsBound: absBound, OutputType: grid.Float32, Streams: streams,
			Stages: func(name string, d time.Duration) {
				if name == "huffbuild" {
					huff += d
				}
			}}
		t := time.Now()
		scan, err := core.Analyze(slab, cp)
		if err != nil {
			return nil, err
		}
		add("core.scan_ms", time.Since(t))
		t = time.Now()
		stream, _, err := scan.EncodeAppend(nil, nil)
		add("core.encode_ms", time.Since(t)-huff)
		add("core.huffbuild_ms", huff)
		scan.Release()
		if err != nil {
			return nil, err
		}
		t = time.Now()
		if _, _, err := core.Decompress(stream); err != nil {
			return nil, err
		}
		add("core.decode_ms", time.Since(t))

		bp := f.blockedParams(0)
		t = time.Now()
		ctr, stats, err := blocked.Compress(arr, bp)
		if err != nil {
			return nil, err
		}
		add("blocked.compress_ms", time.Since(t))
		st = stats
		t = time.Now()
		if _, err := blocked.Decompress(ctr, bp); err != nil {
			return nil, err
		}
		add("blocked.decompress_ms", time.Since(t))
		t = time.Now()
		if _, err := blocked.Inspect(ctr); err != nil {
			return nil, err
		}
		verified := time.Since(t)
		t = time.Now()
		ix, err := blocked.InspectNoVerify(ctr)
		if err != nil {
			return nil, err
		}
		add("blocked.crc_verify_ms", verified-time.Since(t))
		t = time.Now()
		if _, _, err := blocked.DecompressSlabRangeIndexed(ctr, ix, 1, 1); err != nil {
			return nil, err
		}
		add("blocked.slab_decode_ms", time.Since(t))
		lo, hi, err := ix.SlabExtent(1, 1)
		if err != nil {
			return nil, err
		}
		ext := &client.SlabExtent{Data: ctr[lo:hi], Lengths: []int{hi - lo}}
		t = time.Now()
		if _, err := ext.Decode(); err != nil {
			return nil, err
		}
		add("client.extent_decode_ms", time.Since(t))

		sdir := filepath.Join(dir, fmt.Sprintf("layerstore%d", rep))
		s, err := store.Open(sdir, 0)
		if err != nil {
			return nil, err
		}
		t = time.Now()
		digest, err := s.Put(ctr)
		if err != nil {
			return nil, err
		}
		add("store.put_ms", time.Since(t))
		t = time.Now()
		ent, err := s.Get(digest)
		if err != nil {
			return nil, err
		}
		add("store.get_us", 1000*time.Since(t))
		ent.Release()
		os.RemoveAll(sdir)

		// The single-thread codec baseline: the whole field on one P.
		prev := runtime.GOMAXPROCS(1)
		t = time.Now()
		ctr1, _, err := blocked.Compress(arr, f.blockedParams(1))
		c1 := time.Since(t)
		if err == nil {
			t = time.Now()
			_, err = blocked.Decompress(ctr1, f.blockedParams(1))
		}
		d1 := time.Since(t)
		runtime.GOMAXPROCS(prev)
		if err != nil {
			return nil, err
		}
		times["core.compress_mbps_1t"] = append(times["core.compress_mbps_1t"], float64(len(f.raw))/1e6/c1.Seconds())
		times["core.decode_mbps_1t"] = append(times["core.decode_mbps_1t"], float64(len(f.raw))/1e6/d1.Seconds())
	}
	out := map[string]metric{
		"core.hit_rate":       {st.HitRate, "frac"},
		"core.outlier_frac":   {1 - st.HitRate, "frac"},
		"core.bits_per_value": {st.BitRate, "bits"},
	}
	for k, v := range times {
		unit := "ms"
		switch {
		case k == "store.get_us":
			unit = "us"
		case k == "core.compress_mbps_1t" || k == "core.decode_mbps_1t":
			unit = "MB/s"
		}
		out[k] = metric{median(v), unit}
	}
	return out, nil
}

func sortedDurations(d []time.Duration) []time.Duration {
	s := append([]time.Duration(nil), d...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return s
}
