package main

// Load generation: simulated users, the closed and open loops, and the
// per-op record each loop fills in.

import (
	"io"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/client"
	"repro/internal/obs"
)

// op is one client operation as the benchmark saw it.
type op struct {
	due   time.Time // when the op was due: schedule slot (open loop) or previous op's end (closed loop)
	start time.Time // when the user issued it
	end   time.Time
	raw   int64 // raw sample bytes accepted or delivered
	wire  int64 // response body bytes read off the wire
	// revalidated marks an op answered 304 (served from the client's
	// own cache after revalidation); refused counts 429/503 answers the
	// client retried.
	revalidated bool
	refused     int64
	err         error
	// verify runs after the window and returns max |x−x̃| / bound over
	// the op's output, or an error when the output is wrong; its results
	// land in maxErr and verifyErr.
	verify    func() (float64, error)
	maxErr    float64
	verifyErr error
	timing    []obs.TimingEntry // traced runs only
}

func (o *op) latency() time.Duration { return o.end.Sub(o.due) }

// delivered reports whether the op moved correct samples.
func (o *op) delivered() bool { return o.err == nil && o.verifyErr == nil }

// wireCounter counts response body bytes and statuses for one user.
type wireCounter struct {
	base        http.RoundTripper
	bytes       atomic.Int64
	notModified atomic.Int64
	refused     atomic.Int64
}

func (w *wireCounter) RoundTrip(r *http.Request) (*http.Response, error) {
	resp, err := w.base.RoundTrip(r)
	if err != nil {
		return nil, err
	}
	switch resp.StatusCode {
	case http.StatusNotModified:
		w.notModified.Add(1)
	case http.StatusTooManyRequests, http.StatusServiceUnavailable:
		w.refused.Add(1)
	}
	resp.Body = &countingBody{ReadCloser: resp.Body, n: &w.bytes}
	return resp, nil
}

type countingBody struct {
	io.ReadCloser
	n *atomic.Int64
}

func (b *countingBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	b.n.Add(int64(n))
	return n, err
}

// user is one simulated user: its own client.Client (and so its own
// slab revalidation cache) over the shared transport. A user runs one
// op at a time, which is what lets the Server-Timing callback and the
// byte counter attribute to the op in flight.
type user struct {
	c    *client.Client
	wire *wireCounter
	buf  []byte // reusable response buffer
	cur  *op
}

func newUser(addr string, tr *http.Transport, traced bool) (*user, error) {
	u := &user{wire: &wireCounter{base: tr}}
	opts := []client.Option{client.WithHTTPClient(&http.Client{Transport: u.wire})}
	if traced {
		opts = append(opts, client.WithTiming(func(_ string, e []obs.TimingEntry) {
			u.cur.timing = append(u.cur.timing, e...)
		}))
	}
	c, err := client.New(addr, opts...)
	if err != nil {
		return nil, err
	}
	u.c = c
	return u, nil
}

func newUsers(n int, addr string, tr *http.Transport, traced bool) ([]*user, error) {
	us := make([]*user, n)
	for i := range us {
		u, err := newUser(addr, tr, traced)
		if err != nil {
			return nil, err
		}
		us[i] = u
	}
	return us, nil
}

// do runs one op for u, filling in its timing and wire accounting.
func (u *user) do(o *op, fn func(u *user, o *op) error) {
	bytes0, nm0, ref0 := u.wire.bytes.Load(), u.wire.notModified.Load(), u.wire.refused.Load()
	u.cur = o
	o.start = time.Now()
	o.err = fn(u, o)
	o.end = time.Now()
	u.cur = nil
	o.wire = u.wire.bytes.Load() - bytes0
	o.revalidated = u.wire.notModified.Load() > nm0
	o.refused = u.wire.refused.Load() - ref0
}

// readAll drains r into the user's reusable buffer and closes it. The
// returned slice is valid until the user's next op.
func (u *user) readAll(r io.ReadCloser) ([]byte, error) {
	defer r.Close()
	b := u.buf[:0]
	for {
		if len(b) == cap(b) {
			b = append(b, 0)[:len(b)]
		}
		n, err := r.Read(b[len(b):cap(b)])
		b = b[:len(b)+n]
		if err == io.EOF {
			u.buf = b
			return b, nil
		}
		if err != nil {
			u.buf = b
			return nil, err
		}
	}
}

// closedLoop runs every user back to back until the deadline: each
// user's next op is due the moment its previous op ends. next builds
// user i's k-th op; it returns nil when that user has no more work.
func closedLoop(users []*user, deadline time.Time, next func(i, k int) func(u *user, o *op) error) []*op {
	var mu sync.Mutex
	var all []*op
	var wg sync.WaitGroup
	for i, u := range users {
		i, u := i, u
		wg.Add(1)
		go func() {
			defer wg.Done()
			var mine []*op
			due := time.Now()
			for k := 0; time.Now().Before(deadline); k++ {
				fn := next(i, k)
				if fn == nil {
					break
				}
				o := &op{due: due}
				u.do(o, fn)
				mine = append(mine, o)
				due = o.end
			}
			mu.Lock()
			all = append(all, mine...)
			mu.Unlock()
		}()
	}
	wg.Wait()
	return all
}

// arrival is one scheduled open-loop op.
type arrival struct {
	at   time.Duration // offset from the rung's start
	user int
	key  int
	alt  bool // workload-specific variant of the op
}

// openLoop issues the arrivals on schedule, regardless of how earlier
// ops fare: each goes to its user's queue at its due time, and the
// user works its queue in order. Latency counts from the due time, so
// a stall charges every op it delays. It returns the ops and how late
// the generator enqueued each (the generator's own lateness).
func openLoop(users []*user, arrivals []arrival, fn func(a arrival) func(u *user, o *op) error) ([]*op, []time.Duration) {
	perUser := make([]int, len(users))
	for _, a := range arrivals {
		perUser[a.user]++
	}
	queues := make([]chan *queued, len(users))
	for i := range queues {
		queues[i] = make(chan *queued, perUser[i]) // sized to the sends
	}
	ops := make([]*op, len(arrivals))
	var wg sync.WaitGroup
	for i, u := range users {
		i, u := i, u
		wg.Add(1)
		go func() {
			defer wg.Done()
			for q := range queues[i] {
				u.do(q.o, q.fn)
			}
		}()
	}
	late := make([]time.Duration, len(arrivals))
	base := time.Now()
	for j, a := range arrivals {
		due := base.Add(a.at)
		time.Sleep(time.Until(due))
		o := &op{due: due}
		ops[j] = o
		late[j] = time.Since(due)
		queues[a.user] <- &queued{o: o, fn: fn(a)}
	}
	for _, q := range queues {
		close(q)
	}
	wg.Wait()
	return ops, late
}

type queued struct {
	o  *op
	fn func(u *user, o *op) error
}
