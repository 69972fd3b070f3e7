package main

// The loopback fleet: szd backends and the router, each on its own
// 127.0.0.1 listener in this process, configured as cmd/szd and
// cmd/szrouter configure them by default — except replication R=2 and
// the anti-entropy sweep loop, which is off so that rebalance_read's
// owner misses are decided by the ring rather than by a race with a
// background sweep.

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"time"

	"repro/internal/fleet"
	"repro/internal/obs"
	"repro/internal/server"
	"repro/internal/store"
)

const (
	// storeBytes is szd's default -store-bytes.
	storeBytes = 4 << 30
	// qosInterval is szd's default -qos-interval.
	qosInterval = time.Second
	// replication is the fleet's replication factor R.
	replication = 2
	// clientConns bounds the benchmark's connections to the router:
	// every client shares one transport with at most this many.
	clientConns = 2
)

// listener is one HTTP server on a loopback port.
type listener struct {
	addr string
	hs   *http.Server
	done chan struct{}
}

func listen(h http.Handler) (*listener, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	l := &listener{
		addr: ln.Addr().String(),
		hs:   &http.Server{Handler: h, ReadHeaderTimeout: 10 * time.Second, IdleTimeout: 2 * time.Minute},
		done: make(chan struct{}),
	}
	go func() {
		defer close(l.done)
		l.hs.Serve(ln) // returns http.ErrServerClosed on close
	}()
	return l, nil
}

// close stops the server, dropping open connections, and waits for its
// serve loop to return.
func (l *listener) close() {
	l.hs.Close()
	<-l.done
}

// backend is one szd with its store.
type backend struct {
	*listener
	st      *store.Store
	stopQoS func()
}

// fleetT is the running fleet.
type fleetT struct {
	dir      string
	backends []*backend // the three founding members first
	extra    []*backend // backends live-added by rebalance_read
	rt       *fleet.Router
	front    *listener
	scrape   *http.Client // for /metrics, outside the measured connection pool
}

func startBackend(dir string) (*backend, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	st, err := store.Open(dir, storeBytes)
	if err != nil {
		return nil, err
	}
	s := server.New(server.Config{Store: st})
	stop := s.StartQoS(qosInterval)
	l, err := listen(s.Handler())
	if err != nil {
		stop()
		return nil, err
	}
	return &backend{listener: l, st: st, stopQoS: stop}, nil
}

func (b *backend) close() {
	b.listener.close()
	b.stopQoS()
}

// startFleet starts n backends under dir and a router in front of them.
func startFleet(dir string, n int) (*fleetT, error) {
	f := &fleetT{dir: dir, scrape: &http.Client{Timeout: 10 * time.Second}}
	addrs := make([]string, 0, n)
	for i := 0; i < n; i++ {
		b, err := startBackend(filepath.Join(dir, fmt.Sprintf("szd%d", i)))
		if err != nil {
			f.close()
			return nil, err
		}
		f.backends = append(f.backends, b)
		addrs = append(addrs, b.addr)
	}
	rt, err := fleet.New(fleet.Config{
		Backends:            addrs,
		Replication:         replication,
		AntiEntropyInterval: -1,
	})
	if err != nil {
		f.close()
		return nil, err
	}
	rt.Start()
	f.rt = rt
	if f.front, err = listen(rt.Handler()); err != nil {
		f.close()
		return nil, err
	}
	return f, nil
}

// close stops the router, waits for its background replica copies, then
// stops every backend and removes the stores.
func (f *fleetT) close() {
	if f.front != nil {
		f.front.close()
	}
	if f.rt != nil {
		f.rt.Stop()
	}
	for _, b := range f.all() {
		b.close()
	}
	f.scrape.CloseIdleConnections()
	os.RemoveAll(f.dir)
}

// all returns every backend ever started, founding members first.
func (f *fleetT) all() []*backend { return append(append([]*backend(nil), f.backends...), f.extra...) }

// liveAdd starts an empty backend and makes it the fleet's fourth
// member in place of the previous live-added one, then runs one health
// poll so it enters the ring before the call returns.
func (f *fleetT) liveAdd(ctx context.Context) (*backend, error) {
	b, err := startBackend(filepath.Join(f.dir, fmt.Sprintf("szd%d", len(f.backends)+len(f.extra))))
	if err != nil {
		return nil, err
	}
	f.extra = append(f.extra, b)
	members := make([]string, 0, len(f.backends)+1)
	for _, m := range f.backends {
		members = append(members, m.addr)
	}
	if err := f.rt.SetBackends(append(members, b.addr)); err != nil {
		return nil, err
	}
	f.rt.Poller().PollOnce(ctx)
	if f.rt.Poller().Health(b.addr).State != fleet.StateHealthy {
		return nil, fmt.Errorf("live-added backend %s not healthy after a poll", b.addr)
	}
	return b, nil
}

// stored returns a copy of container digest from whichever backend's
// store holds it.
func (f *fleetT) stored(digest string) ([]byte, error) {
	for _, b := range f.all() {
		if e, err := b.st.Get(digest); err == nil {
			out := bytes.Clone(e.Bytes())
			e.Release()
			return out, nil
		}
	}
	return nil, fmt.Errorf("container %s is in no backend's store", digest)
}

// waitReplicated blocks until every digest sits on each of its R ring
// targets, so reads after set-up start from a settled fleet.
func (f *fleetT) waitReplicated(digests []string, timeout time.Duration) error {
	addrs := make([]string, len(f.backends))
	byAddr := map[string]*store.Store{}
	for i, b := range f.backends {
		addrs[i] = b.addr
		byAddr[b.addr] = b.st
	}
	ring := fleet.NewRing(0, addrs...)
	deadline := time.Now().Add(timeout)
	for _, d := range digests {
		for _, target := range ring.Sequence(d, replication) {
			for !byAddr[target].Contains(d) {
				if time.Now().After(deadline) {
					return fmt.Errorf("container %s never reached replica %s", d, target)
				}
				time.Sleep(2 * time.Millisecond)
			}
		}
	}
	return nil
}

// counters is a /metrics snapshot of both tiers, summed over backends.
type counters map[string]float64

// snapshot scrapes the router and every backend.
func (f *fleetT) snapshot() (counters, error) {
	c := counters{}
	router, err := f.scrapeOne(f.front.addr)
	if err != nil {
		return nil, err
	}
	for _, s := range router.Samples {
		switch s.Name {
		case "szrouter_cache_hits_total", "szrouter_cache_misses_total", "szrouter_cache_evictions_total",
			"szrouter_coalesced_total", "szrouter_failovers_total", "szrouter_peer_fills_total",
			"szrouter_replication_writes_total":
			c[s.Name] += s.Value
		}
	}
	for _, b := range f.all() {
		exp, err := f.scrapeOne(b.addr)
		if err != nil {
			return nil, err
		}
		for _, s := range exp.Samples {
			switch s.Name {
			case "szd_store_hits_total", "szd_store_misses_total", "szd_store_bytes":
				c[s.Name] += s.Value
			case "szd_requests_total":
				if st := s.Labels["status"]; st == "429" || st == "503" {
					c["szd_sheds"] += s.Value
				}
			}
		}
	}
	return c, nil
}

func (f *fleetT) scrapeOne(addr string) (*obs.Exposition, error) {
	resp, err := f.scrape.Get("http://" + addr + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("scrape %s: status %d", addr, resp.StatusCode)
	}
	return obs.ParseExposition(string(body))
}

// delta returns after − before per counter.
func delta(before, after counters) counters {
	d := counters{}
	for k, v := range after {
		d[k] = v - before[k]
	}
	return d
}

// newTransport is the benchmark's side of the wire: one transport with
// at most clientConns connections to the router, shared by every
// client.Client; each simulated user wraps it in its own byte counter.
func newTransport() *http.Transport {
	return &http.Transport{
		MaxConnsPerHost:     clientConns,
		MaxIdleConnsPerHost: clientConns,
		IdleConnTimeout:     time.Minute,
	}
}
