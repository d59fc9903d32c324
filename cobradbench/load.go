package main

import (
	"bytes"
	"errors"
	"sync"
	"time"

	"cobra/internal/serve"
	"cobra/internal/serve/client"
)

// session is one connection of the closed loop, pinned to one tenant at
// a time.
type session struct {
	idx     int
	c       *client.Client
	tenants []tenant
	cur     int // configured tenant; -1 before the first CONFIGURE
}

func dialSessions(addr string, tenants []tenant) ([]*session, error) {
	var ss []*session
	for i := 0; i < clients; i++ {
		c, err := client.Dial(addr)
		if err != nil {
			closeSessions(ss)
			return nil, err
		}
		ss = append(ss, &session{idx: i, c: c, tenants: tenants, cur: -1})
	}
	return ss, nil
}

func closeSessions(ss []*session) {
	for _, s := range ss {
		s.c.Close()
	}
}

var errMismatch = errors.New("response differs from the host reference")

// do sends one request, re-CONFIGUREing first when it belongs to another
// tenant than the session holds, and checks the response against the
// precomputed reference. It returns the time the CONFIGURE took (0 when
// none was needed).
func (s *session) do(r *request) (time.Duration, error) {
	var cfg time.Duration
	if r.tenant != s.cur {
		t0 := time.Now()
		tn := s.tenants[r.tenant]
		if _, err := s.c.Configure(client.Config{Tenant: tn.name, Alg: string(tn.alg), Key: tn.key}); err != nil {
			return 0, err
		}
		s.cur = r.tenant
		cfg = time.Since(t0)
	}
	var out []byte
	var err error
	if r.op == serve.FrameDecrypt {
		out, err = s.c.Decrypt(r.mode, r.iv, r.data)
	} else {
		out, err = s.c.Encrypt(r.mode, r.iv, r.data)
	}
	if err != nil {
		return cfg, err
	}
	if !bytes.Equal(out, r.want) {
		return cfg, errMismatch
	}
	return cfg, nil
}

// tally counts one client's outcomes. Every failure kind counts toward
// error_rate.
type tally struct {
	Attempted int
	OK        int
	Busy      int
	WireError int
	Transport int
	Mismatch  int
	Bytes     int64 // verified request payload bytes
	FirstErr  string
}

func (t tally) failed() int { return t.Busy + t.WireError + t.Transport + t.Mismatch }

func (t *tally) add(o tally) {
	t.Attempted += o.Attempted
	t.OK += o.OK
	t.Busy += o.Busy
	t.WireError += o.WireError
	t.Transport += o.Transport
	t.Mismatch += o.Mismatch
	t.Bytes += o.Bytes
	if t.FirstErr == "" {
		t.FirstErr = o.FirstErr
	}
}

// record files one outcome and reports whether the session is still
// usable (transport failures poison it).
func (t *tally) record(r *request, err error) bool {
	t.Attempted++
	if err == nil {
		t.OK++
		t.Bytes += int64(len(r.data))
		return true
	}
	if t.FirstErr == "" {
		t.FirstErr = err.Error()
	}
	var we *serve.WireError
	switch {
	case errors.Is(err, errMismatch):
		t.Mismatch++
	case serve.IsBusy(err):
		t.Busy++
	case errors.As(err, &we):
		t.WireError++
	default:
		t.Transport++
		return false
	}
	return true
}

// reqSpan is the load generator's client.request span: one request as
// the client saw it, with its client.configure child when a tenant
// switch preceded it. Times are ns from the start of the window.
type reqSpan struct {
	Client    int    `json:"client"`
	Seq       int    `json:"seq"`
	Start     int64  `json:"start_ns"`
	Dur       int64  `json:"dur_ns"`
	Configure int64  `json:"configure_ns,omitempty"`
	Bytes     int    `json:"bytes"`
	Class     string `json:"class"`
	Tenant    int    `json:"tenant"`
}

// clientRun is one client's share of a phase.
type clientRun struct {
	tally
	lat   []int64 // ns per verified request, in send order
	spans []reqSpan
	stop  time.Time
}

// phase is one measured stretch of the closed loop.
type phase struct {
	start   time.Time
	wall    time.Duration // start to the last client's last response
	clients [clients]clientRun
}

func (p *phase) total() tally {
	var t tally
	for i := range p.clients {
		t.add(p.clients[i].tally)
	}
	return t
}

func (p *phase) latencies() []int64 {
	var all []int64
	for i := range p.clients {
		all = append(all, p.clients[i].lat...)
	}
	return all
}

// runPhase drives every session through its stream in a closed loop:
// each client sends its next request only after the previous response.
// With a zero duration each client sends its stream exactly once (the
// fixed slice); otherwise the streams repeat until the duration has
// passed and each client's in-flight request has been answered.
func runPhase(ss []*session, streams [clients][]request, d time.Duration, trace bool) *phase {
	p := &phase{start: time.Now()}
	deadline := p.start.Add(d)
	var wg sync.WaitGroup
	for i, s := range ss {
		wg.Add(1)
		go func(s *session, cr *clientRun, reqs []request) {
			defer wg.Done()
			cr.lat = make([]int64, 0, 1<<12)
			for seq := 0; ; seq++ {
				if d == 0 && seq == len(reqs) || d > 0 && !time.Now().Before(deadline) {
					break
				}
				r := &reqs[seq%len(reqs)]
				t0 := time.Now()
				cfg, err := s.do(r)
				dur := time.Since(t0)
				if !cr.record(r, err) {
					break
				}
				if err != nil {
					continue
				}
				cr.lat = append(cr.lat, dur.Nanoseconds())
				if trace {
					cr.spans = append(cr.spans, reqSpan{Client: s.idx, Seq: seq,
						Start: t0.Sub(p.start).Nanoseconds(), Dur: dur.Nanoseconds(),
						Configure: cfg.Nanoseconds(), Bytes: len(r.data), Class: r.class(), Tenant: r.tenant})
				}
			}
			cr.stop = time.Now()
		}(s, &p.clients[i], streams[i])
	}
	wg.Wait()
	for i := range p.clients {
		if w := p.clients[i].stop.Sub(p.start); w > p.wall {
			p.wall = w
		}
	}
	return p
}

// warmUp sends each client's warm-up requests and leaves the sessions
// configured. Any failure here aborts the run: the daemon is not in the
// state the measurement assumes.
func warmUp(ss []*session, warm [clients][]request) error {
	errs := make([]error, len(ss))
	var wg sync.WaitGroup
	for i, s := range ss {
		wg.Add(1)
		go func(i int, s *session) {
			defer wg.Done()
			for j := range warm[i] {
				if _, err := s.do(&warm[i][j]); err != nil {
					errs[i] = err
					return
				}
			}
		}(i, s)
	}
	wg.Wait()
	return errors.Join(errs...)
}
