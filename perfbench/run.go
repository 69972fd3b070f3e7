package main

// One run: set-up (repeated for the untraced run, whose setup_s is the
// median), the measured window, verification, and the metrics.

import (
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// phase is one set-up plus measured window.
type phase struct {
	setup   []time.Duration
	win     *windowResult
	cpu     []cpuSample       // process user+sys CPU read through the window
	peakRSS float64           // MB, through set-up and the window
	maxErr  float64           // max |x−x̃| / bound over every verified output
	failed  int               // ops that errored or failed verification
	delta   counters          // traced only: /metrics deltas over the window
	layers  map[string]metric // traced only: the timed calls into each layer
}

func run(o options, log io.Writer) (*result, error) {
	w, err := lookup(o.workload)
	if err != nil {
		return nil, err
	}
	if o.seconds <= 0 {
		return nil, fmt.Errorf("--seconds must be positive")
	}
	sc := scaleFor(o.tiny)
	root, err := filepath.Abs(filepath.Join(o.dir, fmt.Sprintf("run-%d", os.Getpid())))
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(root)
	window := time.Duration(o.seconds * float64(time.Second))
	if !o.trace {
		ph, err := runPhase(w, sc, o.seed, false, filepath.Join(root, "plain"), window, sc.setupReps, log)
		if err != nil {
			return nil, err
		}
		return endToEnd(ph, log), nil
	}
	// The traced run measures the same workload three times on fresh
	// fleets, each for a third of the window: plain, traced, plain. The
	// traced phase against the mean of the plain ones around it is the
	// probes' overhead, with the process's warm-up drift split evenly.
	var phases [3]*phase
	for i, name := range []string{"plain", "traced", "plain2"} {
		if phases[i], err = runPhase(w, sc, o.seed, i == 1, filepath.Join(root, name), window/3, 1, log); err != nil {
			return nil, err
		}
	}
	return perLayer(w.name, phases[0], phases[1], phases[2], log), nil
}

func runPhase(w workload, sc scale, seed int64, traced bool, dir string, window time.Duration, reps int, log io.Writer) (*phase, error) {
	ph := &phase{}
	tr := newTransport()
	defer tr.CloseIdleConnections()
	e := &env{sc: sc, seed: seed, traced: traced, tr: tr, log: log}
	var f *fleetT
	var drive func(time.Time) (*windowResult, error)
	defer func() {
		if f != nil {
			f.close()
		}
	}()
	for rep := 0; rep < reps; rep++ {
		if f != nil {
			f.close()
			f = nil
		}
		t0 := time.Now()
		var err error
		if f, err = startFleet(filepath.Join(dir, fmt.Sprintf("setup%d", rep)), 3); err != nil {
			return nil, err
		}
		if drive, err = w.setup(e, f); err != nil {
			return nil, fmt.Errorf("%s set-up: %w", w.name, err)
		}
		ph.setup = append(ph.setup, time.Since(t0))
	}
	var warm []*op
	if w.warm {
		win, err := drive(time.Now().Add(warmUp))
		if err != nil {
			return nil, fmt.Errorf("%s warm-up: %w", w.name, err)
		}
		warm = win.ops
	}
	var before counters
	if traced {
		var err error
		if before, err = f.snapshot(); err != nil {
			return nil, err
		}
	}
	stop := ph.sampleCPU()
	win, err := drive(time.Now().Add(window))
	stop()
	if err != nil {
		return nil, fmt.Errorf("%s: %w", w.name, err)
	}
	ph.peakRSS = peakRSS() // before verification, which is the benchmark's own work
	if len(win.ops) == 0 {
		return nil, fmt.Errorf("%s: no op completed in the window", w.name)
	}
	// The warm-up's ops are verified and counted like the window's, but
	// only the window's are measured.
	win.ops = append(warm, win.ops...)
	ph.win = win
	if traced {
		after, err := f.snapshot()
		if err != nil {
			return nil, err
		}
		ph.delta = delta(before, after)
	}
	// Verification: every op, after the window. A wrong answer is a
	// failed op, never an abort.
	verifyAll(win.ops)
	var firstErr error
	for _, o := range win.ops {
		err := o.err
		if err == nil {
			err = o.verifyErr
		}
		if err != nil {
			ph.failed++
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		ph.maxErr = math.Max(ph.maxErr, o.maxErr)
	}
	if firstErr != nil {
		fmt.Fprintf(log, "%s: %d of %d ops failed; first: %v\n", w.name, ph.failed, len(win.ops), firstErr)
	}
	if traced {
		if ph.layers, err = layerPass(sc, seed, dir); err != nil {
			return nil, err
		}
	}
	return ph, nil
}

// verifyAll runs every completed op's check, two at a time.
func verifyAll(ops []*op) {
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(ops) {
					return
				}
				if o := ops[i]; o.err == nil {
					o.maxErr, o.verifyErr = o.verify()
				}
			}
		}()
	}
	wg.Wait()
}

// segments is how many equal parts of the measured window the rate and
// latency metrics are taken over; the median part is reported, so one
// part hit by a burst of host noise does not move the result.
const segments = 3

// endToEnd computes the untraced run's metrics.
func endToEnd(ph *phase, log io.Writer) *result {
	win := ph.win
	var raw, wire int64
	for _, o := range win.nominal {
		if o.delivered() {
			raw += o.raw
		}
		wire += o.wire
	}
	var p50s, tputs, rates, cpus []float64
	segDur := win.nominalWall / segments
	parts, start := split(win.nominal, segDur)
	for i, seg := range parts {
		var segRaw int64
		lats := make([]time.Duration, len(seg))
		for j, o := range seg {
			lats[j] = o.latency()
			if o.delivered() {
				segRaw += o.raw
			}
		}
		p50s = append(p50s, ms(percentile(lats, 50)))
		tputs = append(tputs, float64(segRaw)/1e6/segDur.Seconds())
		rates = append(rates, float64(len(seg))/segDur.Seconds())
		t0 := start.Add(time.Duration(i) * segDur)
		cpu := cpuAt(ph.cpu, t0.Add(segDur)) - cpuAt(ph.cpu, t0)
		cpus = append(cpus, cpu.Seconds()/(float64(segRaw)/1e9))
	}
	maxRate := win.maxRate
	if maxRate == 0 {
		// A closed loop's highest sustained rate is the rate it ran at.
		maxRate = median(rates)
	}
	setups := make([]float64, len(ph.setup))
	for i, d := range ph.setup {
		setups[i] = d.Seconds()
	}
	m := map[string]metric{
		"setup_s":                 {median(setups), "s"},
		"throughput_mbps":         {median(tputs), "MB/s"},
		"op_p50_ms":               {median(p50s), "ms"},
		"compression_factor":      {float64(win.containerRaw) / float64(win.containerBytes), "ratio"},
		"max_err_over_bound":      {ph.maxErr, "ratio"},
		"cpu_s_per_gb":            {median(cpus), "s/GB"},
		"peak_rss_mb":             {ph.peakRSS, "MB"},
		"max_rate_ops":            {maxRate, "ops/s"},
		"wire_bytes_per_raw_byte": {float64(wire) / float64(raw), "ratio"},
	}
	tail, pct, beyond := opTail(win.nominal, win.nominalWall)
	fmt.Fprintf(log, "op_tail_ms %.4g ms (median part's p%g, %d samples beyond it); failed_frac %.4f (%d/%d)\n",
		tail, pct, beyond, float64(ph.failed)/float64(len(win.ops)), ph.failed, len(win.ops))
	return &result{Correct: ph.failed == 0, Attempted: len(win.ops), Failed: ph.failed, Metrics: m}
}

// opTail is the tail latency in ms: per part of the window, the highest
// percentile with at least ten samples beyond it, and the median over
// the parts, with that part's percentile and count beyond it.
func opTail(ops []*op, wall time.Duration) (float64, float64, int) {
	type tail struct {
		ms, pct float64
		beyond  int
	}
	var tails []tail
	parts, _ := split(ops, wall/segments)
	for _, seg := range parts {
		lats := make([]time.Duration, len(seg))
		for i, o := range seg {
			lats[i] = o.latency()
		}
		t, p, b := tailOf(lats)
		tails = append(tails, tail{ms(t), p, b})
	}
	sort.Slice(tails, func(i, j int) bool { return tails[i].ms < tails[j].ms })
	m := tails[len(tails)/2]
	return m.ms, m.pct, m.beyond
}

// split divides ops into consecutive parts of length d by due time,
// starting at the earliest, which it returns; the last part also takes
// any op due after the final boundary.
func split(ops []*op, d time.Duration) ([][]*op, time.Time) {
	parts := make([][]*op, segments)
	if len(ops) == 0 {
		return parts, time.Time{}
	}
	start := ops[0].due
	for _, o := range ops {
		if o.due.Before(start) {
			start = o.due
		}
	}
	for _, o := range ops {
		i := min(int(o.due.Sub(start)/d), segments-1)
		parts[i] = append(parts[i], o)
	}
	return parts, start
}

// percentile is the nearest-rank p-th percentile.
func percentile(lats []time.Duration, p float64) time.Duration {
	if len(lats) == 0 {
		return 0
	}
	s := sortedDurations(lats)
	i := int(math.Ceil(p/100*float64(len(s)))) - 1
	return s[max(i, 0)]
}

// cpuTick is how often the process CPU is read through a window.
const cpuTick = 10 * time.Millisecond

// cpuSample is the process CPU at one instant.
type cpuSample struct {
	at  time.Time
	cpu time.Duration
}

// sampleCPU reads the process CPU into ph.cpu every cpuTick until the
// returned function is called; that function takes a last reading and
// waits for the sampler to end.
func (ph *phase) sampleCPU() (stop func()) {
	ph.cpu = []cpuSample{{time.Now(), cpuTime()}}
	done, ended := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(ended)
		t := time.NewTicker(cpuTick)
		defer t.Stop()
		for {
			select {
			case <-done:
				ph.cpu = append(ph.cpu, cpuSample{time.Now(), cpuTime()})
				return
			case <-t.C:
				ph.cpu = append(ph.cpu, cpuSample{time.Now(), cpuTime()})
			}
		}
	}()
	return func() { close(done); <-ended }
}

// cpuAt is the process CPU at t, interpolated between the samples
// around it and clamped to the first and last.
func cpuAt(samples []cpuSample, t time.Time) time.Duration {
	i := sort.Search(len(samples), func(i int) bool { return !samples[i].at.Before(t) })
	if i == 0 {
		return samples[0].cpu
	}
	if i == len(samples) {
		return samples[len(samples)-1].cpu
	}
	a, b := samples[i-1], samples[i]
	span := b.at.Sub(a.at)
	if span <= 0 {
		return b.cpu
	}
	return a.cpu + time.Duration(float64(b.cpu-a.cpu)*float64(t.Sub(a.at))/float64(span))
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSS is the process's peak resident set in MB (Linux reports
// ru_maxrss in KiB).
func peakRSS() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) * 1024 / 1e6
}
