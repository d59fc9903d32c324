package serve_test

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net"
	"strings"
	"testing"
	"time"

	"cobra/internal/cipher"
	"cobra/internal/program"
	"cobra/internal/serve"
	"cobra/internal/serve/client"
)

// keyN derives a distinct deterministic 16-byte key.
func keyN(n byte) []byte {
	k := make([]byte, 16)
	for i := range k {
		k[i] = byte(i)*7 + n
	}
	return k
}

func testMessage(n int) []byte {
	msg := make([]byte, n)
	for i := range msg {
		msg[i] = byte(i*31 + i>>8)
	}
	return msg
}

// refBlock builds the host-reference cipher — the oracle every server
// response is checked against.
func refBlock(t testing.TB, alg string, key []byte) cipher.Block {
	t.Helper()
	s, err := program.Lookup(alg)
	if err != nil {
		t.Fatal(err)
	}
	blk, err := s.Reference(key)
	if err != nil {
		t.Fatal(err)
	}
	return blk
}

func refECB(blk cipher.Block, src []byte) []byte {
	dst := make([]byte, len(src))
	for off := 0; off < len(src); off += 16 {
		blk.Encrypt(dst[off:], src[off:])
	}
	return dst
}

func refCBC(blk cipher.Block, iv, src []byte) []byte {
	dst := make([]byte, len(src))
	var x [16]byte
	prev := iv
	for off := 0; off < len(src); off += 16 {
		for i := 0; i < 16; i++ {
			x[i] = src[off+i] ^ prev[i]
		}
		blk.Encrypt(dst[off:], x[:])
		prev = dst[off : off+16]
	}
	return dst
}

func refCTR(blk cipher.Block, iv, src []byte) []byte {
	dst := make([]byte, len(src))
	var c, ks [16]byte
	copy(c[:], iv)
	for off := 0; off < len(src); off += 16 {
		blk.Encrypt(ks[:], c[:])
		for i := 15; i >= 0; i-- {
			c[i]++
			if c[i] != 0 {
				break
			}
		}
		n := len(src) - off
		if n > 16 {
			n = 16
		}
		for j := 0; j < n; j++ {
			dst[off+j] = src[off+j] ^ ks[j]
		}
	}
	return dst
}

// startServer runs a server on a loopback port, shut down at cleanup.
func startServer(t testing.TB, opts serve.Options) *serve.Server {
	t.Helper()
	s, err := serve.NewServer(opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
		defer cancel()
		if err := s.Shutdown(ctx); err != nil {
			t.Errorf("shutdown: %v", err)
		}
	})
	return s
}

func dial(t testing.TB, s *serve.Server) *client.Client {
	t.Helper()
	c, err := client.Dial(s.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

var testIV = testMessage(16)

// TestServeOptionsValidation pins NewServer's count options: a negative
// value is an error (cobrad exits 1 on it), zero selects the default,
// and HELLO advertises the pool width actually built.
func TestServeOptionsValidation(t *testing.T) {
	for _, tc := range []struct {
		name    string
		opts    serve.Options
		workers uint16 // advertised in HELLO; 0: NewServer must refuse opts
	}{
		{"negative workers", serve.Options{Backend: "farm", Workers: -3}, 0},
		{"negative max backends", serve.Options{MaxBackends: -1}, 0},
		{"negative max inflight", serve.Options{Backend: "farm", MaxInflight: -2}, 0},
		{"negative max waiters", serve.Options{MaxWaiters: -1}, 0},
		{"zero workers", serve.Options{Backend: "farm"}, 4},
		{"set workers", serve.Options{Backend: "farm", Workers: 3}, 3},
		{"device", serve.Options{Workers: 3}, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if tc.workers == 0 {
				s, err := serve.NewServer(tc.opts)
				if err == nil {
					s.Shutdown(context.Background())
					t.Fatalf("NewServer accepted %+v", tc.opts)
				}
				return
			}
			c := dial(t, startServer(t, tc.opts))
			if got := c.Hello().Workers; got != tc.workers {
				t.Errorf("HELLO advertises %d workers, want %d", got, tc.workers)
			}
		})
	}
}

// TestServeRoundTrips checks every mode round trip on a device backend
// against the host reference ciphers, for all three paper datapaths.
func TestServeRoundTrips(t *testing.T) {
	s := startServer(t, serve.Options{Backend: "device"})
	for i, alg := range []string{"rc6", "rijndael", "serpent"} {
		t.Run(alg, func(t *testing.T) {
			key := keyN(byte(i))
			blk := refBlock(t, alg, key)
			c := dial(t, s)
			ack, err := c.Configure(client.Config{Tenant: alg, Alg: alg, Key: key, Unroll: 1})
			if err != nil {
				t.Fatal(err)
			}
			if ack.Workers != 1 || ack.Rows == 0 {
				t.Fatalf("implausible configure ack: %+v", ack)
			}

			msg := testMessage(4 * 16)
			ct, err := c.Encrypt(serve.ModeECB, nil, msg)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(ct, refECB(blk, msg)) {
				t.Error("ecb ciphertext differs from host reference")
			}
			pt, err := c.Decrypt(serve.ModeECB, nil, ct)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(pt, msg) {
				t.Error("ecb decrypt does not invert encrypt")
			}

			ct, err = c.Encrypt(serve.ModeCBC, testIV, msg)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(ct, refCBC(blk, testIV, msg)) {
				t.Error("cbc ciphertext differs from host reference")
			}
			pt, err = c.Decrypt(serve.ModeCBC, testIV, ct)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(pt, msg) {
				t.Error("cbc decrypt does not invert encrypt")
			}

			tail := testMessage(3*16 + 5) // partial final block
			ct, err = c.Encrypt(serve.ModeCTR, testIV, tail)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(ct, refCTR(blk, testIV, tail)) {
				t.Error("ctr ciphertext differs from host reference")
			}
			pt, err = c.Decrypt(serve.ModeCTR, testIV, ct)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(pt, tail) {
				t.Error("ctr decrypt does not invert encrypt")
			}
		})
	}
}

// TestServeFarmBackend checks the farm path: sharded CTR against the
// host reference, and block-mode decryption — sharded ECB and
// IV-overlapped sharded CBC — inverting encryption through the wire.
func TestServeFarmBackend(t *testing.T) {
	s := startServer(t, serve.Options{Backend: "farm", Workers: 2})
	key := keyN(9)
	blk := refBlock(t, "rijndael", key)
	c := dial(t, s)
	ack, err := c.Configure(client.Config{Tenant: "farm", Alg: "rijndael", Key: key, Unroll: 1})
	if err != nil {
		t.Fatal(err)
	}
	if ack.Workers != 2 || ack.Backend != "farm" {
		t.Fatalf("implausible configure ack: %+v", ack)
	}

	msg := testMessage(100 * 16)
	ct, err := c.Encrypt(serve.ModeCTR, testIV, msg)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(ct, refCTR(blk, testIV, msg)) {
		t.Error("farm ctr ciphertext differs from host reference")
	}
	pt, err := c.Decrypt(serve.ModeCTR, testIV, ct)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(pt, msg) {
		t.Error("farm ctr decrypt does not invert encrypt")
	}

	pt, err = c.Decrypt(serve.ModeECB, nil, refECB(blk, msg))
	if err != nil {
		t.Fatalf("farm ecb decrypt: %v", err)
	}
	if !bytes.Equal(pt, msg) {
		t.Error("farm ecb decrypt does not invert host-reference encrypt")
	}
	pt, err = c.Decrypt(serve.ModeCBC, testIV, refCBC(blk, testIV, msg))
	if err != nil {
		t.Fatalf("farm cbc decrypt: %v", err)
	}
	if !bytes.Equal(pt, msg) {
		t.Error("farm cbc decrypt does not invert host-reference encrypt")
	}
}

// framesTotal reads the server's cobra_serve_frames_total: the request
// frames its sessions have taken, each counted as the server starts
// serving it.
func framesTotal(t testing.TB, s *serve.Server) int64 {
	t.Helper()
	for _, smp := range s.Obs().Gather() {
		if smp.Name == "cobra_serve_frames_total" {
			return smp.Value
		}
	}
	t.Fatal("no cobra_serve_frames_total series")
	return 0
}

// TestClientConfigureUnrollRange pins the client's range check on the
// wire's 16-bit unroll field: an out-of-range depth is refused with an
// error naming it, before any frame reaches the server (it must not wrap
// onto another depth), and the session stays usable.
func TestClientConfigureUnrollRange(t *testing.T) {
	s := startServer(t, serve.Options{Backend: "device"})
	c := dial(t, s)
	for _, tc := range []struct {
		unroll int
		want   uint16 // acknowledged depth; 0: the client must refuse
	}{
		{0, 10}, // full unroll
		{2, 2},
		{-1, 0},
		{65536, 0},
		{65538, 0},
	} {
		t.Run(fmt.Sprint(tc.unroll), func(t *testing.T) {
			before := framesTotal(t, s)
			ack, err := c.Configure(client.Config{Alg: "rijndael", Key: keyN(3), Unroll: tc.unroll})
			if tc.want != 0 {
				if err != nil {
					t.Fatal(err)
				}
				if ack.Unroll != tc.want {
					t.Errorf("ack unroll = %d, want %d", ack.Unroll, tc.want)
				}
				return
			}
			if err == nil {
				t.Fatalf("unroll %d accepted (ack unroll %d)", tc.unroll, ack.Unroll)
			}
			if !strings.Contains(err.Error(), fmt.Sprint(tc.unroll)) {
				t.Errorf("error %q does not name unroll %d", err, tc.unroll)
			}
			if got := framesTotal(t, s); got != before {
				t.Errorf("refused configure sent %d frame(s)", got-before)
			}
		})
	}
	if _, err := c.Encrypt(serve.ModeECB, nil, testMessage(16)); err != nil {
		t.Errorf("session unusable after refused configures: %v", err)
	}
}

// rawDial opens a bare protocol connection (no client library) for
// tests that violate the protocol on purpose.
func rawDial(t *testing.T, s *serve.Server) net.Conn {
	t.Helper()
	conn, err := net.Dial("tcp", s.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	_ = conn.SetDeadline(time.Now().Add(10 * time.Second))
	return conn
}

func rawRoundTrip(t *testing.T, conn net.Conn, f serve.Frame) serve.Frame {
	t.Helper()
	if err := serve.WriteFrame(conn, f); err != nil {
		t.Fatal(err)
	}
	resp, err := serve.ReadFrame(conn, 0)
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func wantWireError(t *testing.T, f serve.Frame, code uint16) *serve.WireError {
	t.Helper()
	if f.Type != serve.FrameError {
		t.Fatalf("want ERROR frame, got %v", f.Type)
	}
	we, err := serve.DecodeError(f.Payload)
	if err != nil {
		t.Fatal(err)
	}
	if we.Code != code {
		t.Fatalf("want error code %s, got %s (%s)", serve.CodeName(code), serve.CodeName(we.Code), we.Msg)
	}
	return we
}

// TestServeSequenceAndVersionErrors covers the protocol's ordering and
// negotiation failures.
func TestServeSequenceAndVersionErrors(t *testing.T) {
	s := startServer(t, serve.Options{Backend: "device"})

	t.Run("configure-before-hello", func(t *testing.T) {
		conn := rawDial(t, s)
		req := serve.ConfigureReq{Tenant: "x", Alg: "rc6", Key: keyN(0), Unroll: 1}
		resp := rawRoundTrip(t, conn, serve.Frame{Type: serve.FrameConfigure, Payload: req.Encode()})
		wantWireError(t, resp, serve.CodeSequence)
		// The session survives: a proper HELLO still works.
		hello := serve.Hello{MinVersion: serve.Version, MaxVersion: serve.Version}
		resp = rawRoundTrip(t, conn, serve.Frame{Type: serve.FrameHello, Payload: hello.Encode()})
		if resp.Type != serve.FrameHello {
			t.Fatalf("hello after sequence error: got %v", resp.Type)
		}
	})

	t.Run("version-mismatch", func(t *testing.T) {
		conn := rawDial(t, s)
		hello := serve.Hello{MinVersion: serve.Version + 1, MaxVersion: serve.Version + 5}
		resp := rawRoundTrip(t, conn, serve.Frame{Type: serve.FrameHello, Payload: hello.Encode()})
		wantWireError(t, resp, serve.CodeVersion)
		if _, err := serve.ReadFrame(conn, 0); err == nil {
			t.Fatal("connection should be closed after version mismatch")
		}
	})

	t.Run("duplicate-hello", func(t *testing.T) {
		conn := rawDial(t, s)
		hello := serve.Hello{MinVersion: serve.Version, MaxVersion: serve.Version}
		if resp := rawRoundTrip(t, conn, serve.Frame{Type: serve.FrameHello, Payload: hello.Encode()}); resp.Type != serve.FrameHello {
			t.Fatalf("handshake failed: %v", resp.Type)
		}
		resp := rawRoundTrip(t, conn, serve.Frame{Type: serve.FrameHello, Payload: hello.Encode()})
		wantWireError(t, resp, serve.CodeSequence)
	})

	t.Run("encrypt-before-configure", func(t *testing.T) {
		c := dial(t, s)
		_, err := c.Encrypt(serve.ModeECB, nil, testMessage(16))
		var we *serve.WireError
		if !errors.As(err, &we) || we.Code != serve.CodeSequence {
			t.Fatalf("want CodeSequence, got %v", err)
		}
	})

	t.Run("bad-requests", func(t *testing.T) {
		c := dial(t, s)
		_, err := c.Configure(client.Config{Alg: "des", Key: keyN(0)})
		var we *serve.WireError
		if !errors.As(err, &we) || we.Code != serve.CodeBadRequest {
			t.Fatalf("unknown alg: want CodeBadRequest, got %v", err)
		}
		_, err = c.Configure(client.Config{Alg: "rc6", Key: []byte("short")})
		if !errors.As(err, &we) || we.Code != serve.CodeBadRequest {
			t.Fatalf("bad key size: want CodeBadRequest, got %v", err)
		}
		// And after all that, a valid configure still succeeds.
		if _, err := c.Configure(client.Config{Alg: "rc6", Key: keyN(0), Unroll: 1}); err != nil {
			t.Fatalf("valid configure after bad ones: %v", err)
		}
		if _, err := c.Encrypt(serve.ModeCBC, testIV[:8], testMessage(16)); err == nil {
			t.Fatal("want error for 8-byte IV")
		}
	})
}

// TestServeBusyShedAndRecovery pins the admission-control contract: a
// saturated backend sheds BUSY instead of queueing unboundedly, the
// shed is a clean application error (the session survives), and a
// retry succeeds once load passes.
func TestServeBusyShedAndRecovery(t *testing.T) {
	s := startServer(t, serve.Options{
		Backend:     "device",
		Interpreter: true, // slow path: requests dwell long enough to collide
		MaxWaiters:  1,    // 1 executing + 1 queued; the rest shed
	})
	const clients = 8
	key := keyN(3)
	blk := refBlock(t, "rc6", key)
	// Long enough (tens of ms on the interpreter) that the goroutine
	// scheduler preempts a request mid-execution even on one CPU, so
	// concurrent sessions genuinely collide at the admission gate.
	msg := testMessage(512 * 16)
	want := refECB(blk, msg)

	conns := make([]*client.Client, clients)
	for i := range conns {
		conns[i] = dial(t, s)
		if _, err := conns[i].Configure(client.Config{Tenant: "shed", Alg: "rc6", Key: key, Unroll: 1}); err != nil {
			t.Fatal(err)
		}
	}

	start := make(chan struct{})
	type result struct {
		sheds int
		err   error
	}
	results := make(chan result, clients)
	for i := range conns {
		go func(c *client.Client) {
			<-start
			r := result{}
			for {
				ct, err := c.Encrypt(serve.ModeECB, nil, msg)
				if serve.IsBusy(err) {
					r.sheds++
					time.Sleep(10 * time.Millisecond)
					continue // recovery: same session retries
				}
				if err == nil && !bytes.Equal(ct, want) {
					err = fmt.Errorf("ciphertext differs from host reference")
				}
				r.err = err
				results <- r
				return
			}
		}(conns[i])
	}
	close(start)

	sheds := 0
	for i := 0; i < clients; i++ {
		r := <-results
		if r.err != nil {
			t.Fatal(r.err)
		}
		sheds += r.sheds
	}
	if sheds == 0 {
		t.Error("8 simultaneous requests against 1 slot + 1 waiter produced no BUSY shed")
	}
	t.Logf("observed %d BUSY sheds, all recovered", sheds)
}

// TestServeBackendLRU pins the cache contract: reuse is reported in the
// CONFIGURE ack, pinned backends cannot be evicted (CONFIGURE sheds
// BUSY instead), and releasing a pin makes its backend evictable again.
func TestServeBackendLRU(t *testing.T) {
	s := startServer(t, serve.Options{Backend: "device", MaxBackends: 2})
	cfg := func(n byte) client.Config {
		return client.Config{Tenant: "lru", Alg: "rc6", Key: keyN(n), Unroll: 1}
	}

	c1 := dial(t, s)
	ack, err := c1.Configure(cfg(1))
	if err != nil || ack.CacheHit {
		t.Fatalf("first configure: hit=%v err=%v", ack.CacheHit, err)
	}
	c1.Close()

	c2 := dial(t, s)
	if ack, err = c2.Configure(cfg(1)); err != nil || !ack.CacheHit {
		t.Fatalf("reconfigure of cached backend: hit=%v err=%v", ack.CacheHit, err)
	}
	c3 := dial(t, s)
	if ack, err = c3.Configure(cfg(2)); err != nil || ack.CacheHit {
		t.Fatalf("second distinct configure: hit=%v err=%v", ack.CacheHit, err)
	}

	// Cache is full (2) and both entries are pinned: a third
	// configuration must shed BUSY, not evict under a live session.
	c4 := dial(t, s)
	if _, err = c4.Configure(cfg(3)); !serve.IsBusy(err) {
		t.Fatalf("configure with all backends pinned: want BUSY, got %v", err)
	}

	// Releasing one pin (session close is asynchronous — poll) makes
	// room: the eviction victim is the released backend.
	c3.Close()
	deadline := time.Now().Add(10 * time.Second)
	for {
		if _, err = c4.Configure(cfg(3)); err == nil {
			break
		}
		if !serve.IsBusy(err) || time.Now().After(deadline) {
			t.Fatalf("configure after release: %v", err)
		}
		time.Sleep(5 * time.Millisecond)
	}

	// Key 2 was evicted: once c2's pin on key 1 is also gone, key 2
	// reconfigures cold while the still-cached key 1 would be the
	// eviction victim.
	c2.Close()
	c5 := dial(t, s)
	for {
		ack, err = c5.Configure(cfg(2))
		if err == nil {
			break
		}
		if !serve.IsBusy(err) || time.Now().After(deadline) {
			t.Fatalf("configure after eviction: %v", err)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if ack.CacheHit {
		t.Fatal("evicted backend should reconfigure cold")
	}
}

// TestServeStatsAndMetrics checks the STATS reply and the per-tenant
// series in the server's own registry.
func TestServeStatsAndMetrics(t *testing.T) {
	s := startServer(t, serve.Options{Backend: "device"})
	alice := dial(t, s)
	if _, err := alice.Configure(client.Config{Tenant: "alice", Alg: "rc6", Key: keyN(1), Unroll: 1}); err != nil {
		t.Fatal(err)
	}
	bob := dial(t, s)
	if _, err := bob.Configure(client.Config{Tenant: "bob", Alg: "rijndael", Key: keyN(2), Unroll: 1}); err != nil {
		t.Fatal(err)
	}

	msg := testMessage(8 * 16)
	for i := 0; i < 2; i++ {
		if _, err := alice.Encrypt(serve.ModeCTR, testIV, msg); err != nil {
			t.Fatal(err)
		}
	}
	ct, err := bob.Encrypt(serve.ModeECB, nil, msg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := bob.Decrypt(serve.ModeECB, nil, ct); err != nil {
		t.Fatal(err)
	}

	st, err := alice.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.Tenant != "alice" || st.Encrypts != 2 || st.Decrypts != 0 || st.Blocks != 16 {
		t.Fatalf("alice stats: %+v", st)
	}
	if st.Backend.Algorithm != "rc6" {
		t.Fatalf("alice backend summary: %+v", st.Backend)
	}
	if st, err = bob.Stats(); err != nil || st.Encrypts != 1 || st.Decrypts != 1 {
		t.Fatalf("bob stats: %+v err=%v", st, err)
	}

	var buf bytes.Buffer
	if err := s.Obs().WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	scrape := buf.String()
	for _, want := range []string{
		`cobra_serve_requests_total`,
		`tenant="alice"`,
		`tenant="bob"`,
		`cobra_serve_sessions_active`,
		`cobra_serve_backends`,
		`cobra_device_requests_total`, // backend subtree attached...
		`config="rc6-u1-`,             // ...under a key-fingerprint label
	} {
		if !strings.Contains(scrape, want) {
			t.Errorf("scrape is missing %s", want)
		}
	}
	if strings.Contains(scrape, fmt.Sprintf("%x", keyN(1))) {
		t.Error("scrape leaks key material")
	}
}

// TestServeDrainInFlightCompletes pins the graceful-drain guarantee: a
// request already executing when Shutdown begins completes with a
// correct response; only then is the session told CodeDraining; and new
// connections are refused with CodeDraining.
func TestServeDrainInFlightCompletes(t *testing.T) {
	s, err := serve.NewServer(serve.Options{Backend: "device", Interpreter: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	key := keyN(7)
	blk := refBlock(t, "rc6", key)
	c, err := client.Dial(s.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Configure(client.Config{Tenant: "drain", Alg: "rc6", Key: key, Unroll: 1}); err != nil {
		t.Fatal(err)
	}

	msg := testMessage(512 * 16) // interpreter-slow: still in flight when drain begins
	type enc struct {
		ct  []byte
		err error
	}
	done := make(chan enc, 1)
	go func() {
		ct, err := c.Encrypt(serve.ModeCTR, testIV, msg)
		done <- enc{ct, err}
	}()
	// Wait until the session has taken the encrypt frame (its third, after
	// hello and configure), so Shutdown finds the request in flight rather
	// than queued: a queued frame may be answered with the drain notice.
	deadline := time.Now().Add(10 * time.Second)
	for framesTotal(t, s) < 3 {
		if time.Now().After(deadline) {
			t.Fatal("the encrypt frame never reached the session")
		}
		time.Sleep(100 * time.Microsecond)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("graceful drain failed: %v", err)
	}

	r := <-done
	if r.err != nil {
		t.Fatalf("in-flight request dropped by drain: %v", r.err)
	}
	if !bytes.Equal(r.ct, refCTR(blk, testIV, msg)) {
		t.Fatal("in-flight response corrupted by drain")
	}

	// The session was told why it ended: the next request surfaces the
	// drain notice (or the closed transport, if the teardown won).
	if _, err := c.Encrypt(serve.ModeECB, nil, testMessage(16)); err == nil {
		t.Fatal("session should be unusable after drain")
	} else if we := new(serve.WireError); errors.As(err, &we) && !serve.IsDraining(err) {
		t.Fatalf("post-drain error: %v", err)
	}

	// New connections are refused.
	if c2, err := client.Dial(s.Addr().String()); err == nil {
		c2.Close()
		t.Fatal("dial should fail after shutdown")
	}
}
