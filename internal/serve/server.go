package serve

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"

	"cobra/internal/core"
	"cobra/internal/farm"
	"cobra/internal/obs"
)

// Options configures a Server. The zero value is usable: a single-device
// backend per configuration, an 8-entry backend LRU, and the default
// frame limit.
type Options struct {
	// Backend selects what serves each tenant configuration: "device"
	// (default — one simulated COBRA chip per configuration) or "farm"
	// (a pool of Workers replicated chips; non-feedback modes shard).
	Backend string
	// Workers is the worker-pool width shared by every farm backend
	// (default 4; ignored for "device"). One pool serves all tenant
	// configurations: the program-aware scheduler keeps each worker's
	// device bound to one (program, key) so tenant traffic avoids
	// reconfigurations.
	Workers int
	// MaxBackends bounds the LRU of configured backends (default 8).
	// Distinct (algorithm, key, unroll) triples beyond this evict the
	// least-recently-used idle backend; if every cached backend is
	// pinned by a live session, CONFIGURE answers BUSY.
	MaxBackends int
	// MaxInflight bounds concurrently executing requests per backend.
	// Default: 1 for "device" (a Device is single-goroutine by
	// contract), Workers for "farm". "device" is clamped to 1.
	MaxInflight int
	// MaxWaiters bounds requests queued behind the inflight ones before
	// admission control sheds BUSY (default 2*MaxInflight).
	MaxWaiters int
	// MaxFrame is the advertised payload-size ceiling in bytes
	// (default DefaultMaxFrame, clamped to AbsMaxFrame).
	MaxFrame uint32
	// Interpreter forces the cycle-accurate interpreter (no fastpath) —
	// the comparison/debugging path, and what the cancellation tests
	// use to make requests slow enough to abandon mid-flight.
	Interpreter bool
	// Metrics, when non-nil, is the parent registry the server's own
	// registry attaches to (obs.Default in cobrad). Nil keeps it
	// detached — hermetic, the right default for tests.
	Metrics *obs.Registry
	// Logf receives server lifecycle logs (nil: silent).
	Logf func(format string, args ...any)
}

// withDefaults validates an Options and fills in unset fields: zero
// means "default", a negative count is an error.
func (o Options) withDefaults() (Options, error) {
	switch o.Backend {
	case "":
		o.Backend = "device"
	case "device", "farm":
	default:
		return o, fmt.Errorf("serve: unknown backend %q (want device or farm)", o.Backend)
	}
	if o.Workers < 0 || o.MaxBackends < 0 || o.MaxInflight < 0 || o.MaxWaiters < 0 {
		return o, fmt.Errorf("serve: negative count (workers %d, max backends %d, max inflight %d, max waiters %d)",
			o.Workers, o.MaxBackends, o.MaxInflight, o.MaxWaiters)
	}
	if o.Workers == 0 {
		o.Workers = 4
	}
	if o.MaxBackends == 0 {
		o.MaxBackends = 8
	}
	if o.MaxInflight == 0 {
		if o.Backend == "farm" {
			o.MaxInflight = o.Workers
		} else {
			o.MaxInflight = 1
		}
	}
	if o.Backend == "device" {
		o.MaxInflight = 1 // a Device is single-goroutine by contract
	}
	if o.MaxWaiters == 0 {
		o.MaxWaiters = 2 * o.MaxInflight
	}
	if o.MaxFrame == 0 {
		o.MaxFrame = DefaultMaxFrame
	}
	if o.MaxFrame > AbsMaxFrame {
		o.MaxFrame = AbsMaxFrame
	}
	if o.Logf == nil {
		o.Logf = func(string, ...any) {}
	}
	return o, nil
}

// Server is the multi-tenant cipher daemon: a TCP listener whose
// connections are tenant sessions over a shared, capacity-bounded pool
// of configured backends. See the package comment for the protocol and
// cmd/cobrad for the binary.
type Server struct {
	opts  Options
	reg   *obs.Registry
	met   *serverMetrics
	cache *cache
	// pool is the worker pool shared by every farm backend (nil for the
	// device backend). Tenants opened on it keep program affinity across
	// backend evictions and re-CONFIGUREs.
	pool *farm.Pool

	ln         net.Listener
	acceptDone chan struct{}

	mu       sync.Mutex
	conns    map[net.Conn]struct{}
	tenants  map[string]*tenantMetrics
	draining bool
	drainCh  chan struct{}

	wg sync.WaitGroup // live sessions
}

// NewServer builds a server (not yet listening; call Start).
func NewServer(opts Options) (*Server, error) {
	opts, err := opts.withDefaults()
	if err != nil {
		return nil, err
	}
	s := &Server{
		opts:    opts,
		reg:     obs.NewRegistry(obs.L("component", "cobrad")),
		conns:   make(map[net.Conn]struct{}),
		tenants: make(map[string]*tenantMetrics),
		drainCh: make(chan struct{}),
	}
	s.met = newServerMetrics(s.reg)
	if opts.Backend == "farm" {
		pool, err := farm.NewPool(opts.Workers)
		if err != nil {
			return nil, err
		}
		s.pool = pool
		s.reg.Attach(pool.Obs())
	}
	s.cache = newCache(opts.MaxBackends, s.buildBackend)
	s.cache.hits = s.reg.Counter("cobra_serve_backend_hits_total",
		"CONFIGUREs served from the backend LRU (no reconfiguration paid).")
	s.cache.misses = s.reg.Counter("cobra_serve_backend_misses_total",
		"CONFIGUREs that configured a new backend.")
	s.cache.evictions = s.reg.Counter("cobra_serve_backend_evictions_total",
		"Backends closed by LRU eviction.")
	s.cache.size = s.reg.Gauge("cobra_serve_backends",
		"Configured backends currently cached.")
	s.cache.attach = func(b *backend) {
		s.reg.Attach(b.reg, obs.L("config", b.key.fingerprint()))
	}
	s.cache.detach = func(b *backend) { s.reg.Detach(b.reg) }
	if opts.Metrics != nil {
		opts.Metrics.Attach(s.reg)
	}
	return s, nil
}

// Obs returns the server's metrics registry (serve-level series plus
// every cached backend's subtree under config="…" labels).
func (s *Server) Obs() *obs.Registry { return s.reg }

// buildBackend configures a new backend for a (program, key) pair,
// building the pair's image (microcode compile, fastpath trace
// recording and self-check): the expensive operation the LRU exists to
// amortize. A farm backend's workers load that image on every switch to
// the pair; none of them compiles it again.
func (s *Server) buildBackend(k backendKey, e *backend) error {
	cfg := core.Config{Unroll: k.unroll, Interpreter: s.opts.Interpreter}
	switch s.opts.Backend {
	case "farm":
		f, err := s.pool.Open(k.alg, []byte(k.key), cfg)
		if err != nil {
			return err
		}
		sum := f.Summary()
		e.cipher, e.closer, e.reg = f, f.Close, f.Obs()
		e.queueDepth, e.queueCap = f.QueueDepth, f.QueueCapacity()
		e.workers, e.rows, e.unroll = f.Workers(), sum.Rows, sum.Unroll
		e.fastpath = f.UsesFastpath()
	default:
		d, err := core.Configure(k.alg, []byte(k.key), cfg)
		if err != nil {
			return err
		}
		sum := d.Summary()
		e.cipher, e.reg = d, d.Obs()
		e.workers, e.rows, e.unroll = 1, sum.Rows, sum.Unroll
		e.fastpath = d.UsesFastpath()
	}
	e.sem = make(chan struct{}, s.opts.MaxInflight)
	e.maxWaiters = int64(s.opts.MaxWaiters)
	s.opts.Logf("serve: configured backend %s (%s, workers=%d, fastpath=%v)",
		e.key.fingerprint(), s.opts.Backend, e.workers, e.fastpath)
	return nil
}

// Start binds addr and begins accepting sessions in the background.
func (s *Server) Start(addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	s.ln = ln
	s.acceptDone = make(chan struct{})
	go s.acceptLoop()
	return nil
}

// Addr returns the bound listener address (after Start).
func (s *Server) Addr() net.Addr { return s.ln.Addr() }

func (s *Server) acceptLoop() {
	defer close(s.acceptDone)
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			return // listener closed: drain or Close
		}
		s.mu.Lock()
		if s.draining {
			s.mu.Unlock()
			_ = WriteFrame(conn, Frame{Type: FrameError,
				Payload: EncodeError(CodeDraining, "server draining")})
			conn.Close()
			continue
		}
		s.conns[conn] = struct{}{}
		s.wg.Add(1)
		s.mu.Unlock()
		s.met.sessions.Inc()
		s.met.sessionsActive.Add(1)
		go s.serveConn(conn)
	}
}

// tenantMetricsFor returns the (shared) series set for a tenant label.
func (s *Server) tenantMetricsFor(tenant string) *tenantMetrics {
	s.mu.Lock()
	defer s.mu.Unlock()
	tm, ok := s.tenants[tenant]
	if !ok {
		tm = newTenantMetrics(s.reg, tenant)
		s.tenants[tenant] = tm
	}
	return tm
}

// session is one connection's state.
type session struct {
	srv    *Server
	conn   net.Conn
	bw     *bufio.Writer
	ctx    context.Context
	cancel context.CancelFunc

	helloDone bool
	tenant    string
	tm        *tenantMetrics
	backend   *backend
}

// write sends one frame, reporting whether the connection is still good.
func (sess *session) write(f Frame) bool {
	if err := WriteFrame(sess.bw, f); err != nil {
		return false
	}
	if err := sess.bw.Flush(); err != nil {
		return false
	}
	sess.srv.met.bytesOut.Add(int64(len(f.Payload)))
	return true
}

// writeError sends an ERROR frame and accounts it to the session's
// tenant (if configured).
func (sess *session) writeError(code uint16, msg string) bool {
	if sess.tm != nil {
		if code == CodeBusy {
			sess.tm.sheds.Inc()
		} else {
			sess.tm.errors.Inc()
		}
	}
	return sess.write(Frame{Type: FrameError, Payload: EncodeError(code, msg)})
}

// serveConn runs one session: a reader goroutine feeds frames to the
// processing loop, so a client disconnect cancels the session context —
// and with it any in-flight backend work — instead of waiting for the
// response write to fail.
func (s *Server) serveConn(conn net.Conn) {
	defer s.wg.Done()
	ctx, cancel := context.WithCancel(context.Background())
	sess := &session{srv: s, conn: conn, bw: bufio.NewWriter(conn), ctx: ctx, cancel: cancel}
	defer func() {
		cancel()
		conn.Close()
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
		if sess.backend != nil {
			s.cache.release(sess.backend)
			sess.backend = nil
		}
		s.met.sessionsActive.Add(-1)
	}()

	var readErr error // written before frames closes, read after
	frames := make(chan Frame)
	go func() {
		br := bufio.NewReader(conn)
		for {
			f, err := ReadFrame(br, s.opts.MaxFrame)
			if err != nil {
				readErr = err
				cancel() // abandon in-flight backend work: client is gone or desynced
				close(frames)
				return
			}
			select {
			case frames <- f:
			case <-ctx.Done():
				close(frames)
				return
			}
		}
	}()

	for {
		select {
		case <-s.drainCh:
			// Graceful drain: serve at most one already-queued frame, then
			// announce. A frame mid-processing always completes — this loop
			// is the processor — so accepted requests are never dropped.
			select {
			case f, ok := <-frames:
				if ok && !s.handleFrame(sess, f) {
					return
				}
			default:
			}
			sess.writeError(CodeDraining, "server draining")
			s.met.drained.Inc()
			return
		case f, ok := <-frames:
			if !ok {
				if readErr != nil && !isDisconnect(readErr) {
					// The stream is desynced, not gone: tell the client why
					// before hanging up.
					code := CodeMalformed
					if errors.Is(readErr, ErrTooLarge) {
						code = CodeTooLarge
					}
					sess.writeError(code, readErr.Error())
				}
				return
			}
			if !s.handleFrame(sess, f) {
				return
			}
		}
	}
}

// isDisconnect classifies read errors that mean "peer went away" (vs. a
// protocol violation worth answering).
func isDisconnect(err error) bool {
	if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) || errors.Is(err, net.ErrClosed) {
		return true
	}
	var ne net.Error
	if errors.As(err, &ne) {
		return true
	}
	var oe *net.OpError
	return errors.As(err, &oe)
}

// handleFrame serves one request frame, reporting whether the session
// should continue.
func (s *Server) handleFrame(sess *session, f Frame) bool {
	s.met.framesIn.Inc()
	s.met.bytesIn.Add(int64(len(f.Payload)))
	switch f.Type {
	case FrameHello:
		return s.handleHello(sess, f)
	case FrameConfigure:
		return s.handleConfigure(sess, f)
	case FrameEncrypt, FrameDecrypt:
		return s.handleCipher(sess, f)
	case FrameStats:
		return s.handleStats(sess, f)
	default: // FrameError from a client is a protocol violation
		sess.writeError(CodeSequence, fmt.Sprintf("unexpected %v frame", f.Type))
		return false
	}
}

func (s *Server) handleHello(sess *session, f Frame) bool {
	if sess.helloDone {
		return sess.writeError(CodeSequence, "duplicate hello")
	}
	h, err := DecodeHello(f.Payload)
	if err != nil {
		sess.writeError(CodeMalformed, err.Error())
		return false
	}
	if h.MinVersion > Version || h.MaxVersion < Version {
		sess.writeError(CodeVersion,
			fmt.Sprintf("server speaks version %d, client offers %d..%d", Version, h.MinVersion, h.MaxVersion))
		return false
	}
	sess.helloDone = true
	ack := HelloAck{
		Version:  Version,
		MaxFrame: s.opts.MaxFrame,
		Backend:  s.opts.Backend,
		Workers:  uint16(s.opts.Workers),
	}
	if s.opts.Backend == "device" {
		ack.Workers = 1
	}
	return sess.write(Frame{Type: FrameHello, Payload: ack.Encode()})
}

func (s *Server) handleConfigure(sess *session, f Frame) bool {
	if !sess.helloDone {
		return sess.writeError(CodeSequence, "configure before hello")
	}
	c, err := DecodeConfigureReq(f.Payload)
	if err != nil {
		sess.writeError(CodeMalformed, err.Error())
		return false
	}
	alg := core.Algorithm(c.Alg)
	if _, err := alg.TotalRounds(); err != nil {
		return sess.writeError(CodeBadRequest, err.Error())
	}
	tenant := c.Tenant
	if tenant == "" {
		tenant = "default"
	}
	k := backendKey{alg: alg, unroll: int(c.Unroll), key: string(c.Key)}
	b, hit, err := s.cache.acquire(sess.ctx, k)
	if err != nil {
		switch {
		case errors.Is(err, errCacheBusy):
			return sess.writeError(CodeBusy, err.Error())
		case sess.ctx.Err() != nil:
			return false
		default: // configuration error: bad key size, bad unroll, …
			return sess.writeError(CodeBadRequest, err.Error())
		}
	}
	// Re-CONFIGURE releases the previous pin: the session's backend
	// swaps atomically from its own goroutine's view.
	if sess.backend != nil {
		s.cache.release(sess.backend)
	}
	sess.backend = b
	sess.tenant = tenant
	sess.tm = s.tenantMetricsFor(tenant)
	if hit {
		sess.tm.cacheHits.Inc()
	}
	ack := ConfigureAck{
		Backend:  s.opts.Backend,
		Workers:  uint16(b.workers),
		Rows:     uint16(b.rows),
		Unroll:   uint16(b.unroll),
		Fastpath: b.fastpath,
		CacheHit: hit,
	}
	return sess.write(Frame{Type: FrameConfigure, Payload: ack.Encode()})
}

func (s *Server) handleCipher(sess *session, f Frame) bool {
	if sess.backend == nil {
		return sess.writeError(CodeSequence, "encrypt/decrypt before configure")
	}
	req, err := DecodeCipherReq(f.Payload)
	if err != nil {
		sess.writeError(CodeMalformed, err.Error())
		return false
	}
	op := opEncrypt
	if f.Type == FrameDecrypt {
		op = opDecrypt
	}
	sess.tm.requests[op].Inc()
	b := sess.backend

	// Admission control, two layers: the farm's own backpressure signal
	// (all worker queues full: the next dispatch would block), then the
	// per-backend execution slots and bounded wait queue.
	if b.queueDepth != nil && b.queueDepth() >= b.queueCap {
		return sess.writeError(CodeBusy, "backend queues full")
	}
	if err := b.acquireSlot(sess.ctx); err != nil {
		if errors.Is(err, errBusySlot) {
			return sess.writeError(CodeBusy, err.Error())
		}
		return false // client disconnected while queued
	}
	sp := sess.tm.latency[op].Start()
	out, err := s.runCipher(sess.ctx, b, f.Type, req)
	sp.End()
	b.releaseSlot()
	if err != nil {
		if sess.ctx.Err() != nil {
			return false // disconnected mid-request; work was abandoned
		}
		var we *WireError
		if errors.As(err, &we) {
			return sess.writeError(we.Code, we.Msg)
		}
		return sess.writeError(CodeBadRequest, err.Error())
	}
	sess.tm.blocks.Add(int64((len(req.Data) + 15) / 16))
	return sess.write(Frame{Type: f.Type, Payload: out})
}

// runCipher dispatches one ENCRYPT/DECRYPT to the backend.
func (s *Server) runCipher(ctx context.Context, b *backend, t FrameType, req CipherReq) ([]byte, error) {
	if t == FrameEncrypt {
		switch req.Mode {
		case ModeECB:
			return b.cipher.EncryptECB(ctx, req.Data)
		case ModeCBC:
			return b.cipher.EncryptCBC(ctx, req.IV, req.Data)
		default:
			return b.cipher.EncryptCTR(ctx, req.IV, req.Data)
		}
	}
	switch req.Mode {
	case ModeECB:
		return b.cipher.DecryptECB(ctx, req.Data)
	case ModeCBC:
		return b.cipher.DecryptCBC(ctx, req.IV, req.Data)
	default:
		return b.cipher.DecryptCTR(ctx, req.IV, req.Data)
	}
}

// StatsReply is the JSON payload answering a STATS frame.
type StatsReply struct {
	Tenant string `json:"tenant"`
	// Per-tenant serve-level counters (shared across the tenant's
	// sessions).
	Encrypts int64 `json:"encrypts"`
	Decrypts int64 `json:"decrypts"`
	Sheds    int64 `json:"sheds"`
	Errors   int64 `json:"errors"`
	Blocks   int64 `json:"blocks"`
	// Backend is the pinned backend's performance view.
	Backend core.Summary `json:"backend"`
}

func (s *Server) handleStats(sess *session, f Frame) bool {
	if sess.backend == nil {
		return sess.writeError(CodeSequence, "stats before configure")
	}
	if len(f.Payload) != 0 {
		sess.writeError(CodeMalformed, "stats carries no payload")
		return false
	}
	sess.tm.requests[opStats].Inc()
	sp := sess.tm.latency[opStats].Start()
	reply := StatsReply{
		Tenant:   sess.tenant,
		Encrypts: sess.tm.requests[opEncrypt].Value(),
		Decrypts: sess.tm.requests[opDecrypt].Value(),
		Sheds:    sess.tm.sheds.Value(),
		Errors:   sess.tm.errors.Value(),
		Blocks:   sess.tm.blocks.Value(),
		Backend:  sess.backend.cipher.Summary(),
	}
	sp.End()
	p, err := json.Marshal(reply)
	if err != nil {
		return sess.writeError(CodeInternal, err.Error())
	}
	return sess.write(Frame{Type: FrameStats, Payload: p})
}

// Shutdown drains the server gracefully: the listener closes (new
// connections are refused with CodeDraining), every session finishes
// its in-flight frame — plus at most one already-queued frame — and is
// told CodeDraining, and the cached backends are closed. ctx bounds the
// wait: on expiry the remaining connections are force-closed and ctx's
// error is returned. Shutdown is idempotent and safe to call
// concurrently.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	if !s.draining {
		s.draining = true
		close(s.drainCh)
		if s.ln != nil {
			s.ln.Close()
		}
	}
	s.mu.Unlock()

	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	var err error
	select {
	case <-done:
	case <-ctx.Done():
		err = ctx.Err()
		s.mu.Lock()
		for c := range s.conns {
			c.Close()
		}
		s.mu.Unlock()
		<-done // sessions exit promptly once their conns die
	}
	if s.acceptDone != nil {
		<-s.acceptDone
	}
	s.cache.closeAll()
	if s.pool != nil {
		s.pool.Close() // idempotent; tenants were closed by closeAll
	}
	s.mu.Lock()
	if s.opts.Metrics != nil {
		s.opts.Metrics.Detach(s.reg)
	}
	s.mu.Unlock()
	return err
}

// Close shuts the server down immediately (Shutdown with an expired
// deadline): connections are force-closed.
func (s *Server) Close() error {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	err := s.Shutdown(ctx)
	if errors.Is(err, context.Canceled) {
		return nil
	}
	return err
}
