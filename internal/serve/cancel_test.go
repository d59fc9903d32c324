package serve_test

import (
	"bytes"
	"net"
	"runtime"
	"testing"
	"time"

	"cobra/internal/serve"
	"cobra/internal/serve/client"
)

// waitGoroutines is the leak-check helper: it polls until the process
// goroutine count is back at (or below) max, failing after the
// deadline with a stack dump of the stragglers.
func waitGoroutines(t *testing.T, max int, deadline time.Duration) {
	t.Helper()
	end := time.Now().Add(deadline)
	for {
		n := runtime.NumGoroutine()
		if n <= max {
			return
		}
		if time.Now().After(end) {
			buf := make([]byte, 1<<20)
			buf = buf[:runtime.Stack(buf, true)]
			t.Fatalf("goroutine leak: %d live, want <= %d\n%s", n, max, buf)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// sumSeries sums every sample of one metric family on the server's
// registry, attached subtrees included.
func sumSeries(s *serve.Server, name string) int64 {
	var n int64
	for _, smp := range s.Obs().Gather() {
		if smp.Name == name {
			n += smp.Value
		}
	}
	return n
}

// TestServeClientDisconnectMidRequest pins the cancellation contract: a
// client that vanishes mid-bulk-request must not leak goroutines, must
// release its backend to the LRU, and must not corrupt the next
// tenant's stream. The request is cut short, not finished first: the
// workers skip its queued shards and count each as a worker error.
func TestServeClientDisconnectMidRequest(t *testing.T) {
	s := startServer(t, serve.Options{Backend: "farm", Workers: 2})
	key := keyN(5)
	blk := refBlock(t, "rc6", key)
	cfg := client.Config{Tenant: "ghost", Alg: "rc6", Key: key, Unroll: 1}

	// Warm the backend with a clean session, so its worker goroutines
	// (which rightly persist in the LRU) are part of the baseline.
	warm, err := client.Dial(s.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := warm.Configure(cfg); err != nil {
		t.Fatal(err)
	}
	if _, err := warm.Encrypt(serve.ModeCTR, testIV, testMessage(16)); err != nil {
		t.Fatal(err)
	}
	warm.Close()

	// Let the warm session's goroutines wind down, then take the
	// baseline the leak check compares against.
	time.Sleep(50 * time.Millisecond)
	baseline := runtime.NumGoroutine()
	skipped := sumSeries(s, "cobra_farm_worker_errors_total")

	// The ghost session: handshake, configure, fire a bulk request of
	// 64,000 blocks, about 63 shards that rc6-1's trace runs in some
	// 150 ms on two workers — and hang up without reading the response.
	conn, err := net.Dial("tcp", s.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	rt := func(f serve.Frame) serve.Frame {
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
	hello := serve.Hello{MinVersion: serve.Version, MaxVersion: serve.Version}
	if resp := rt(serve.Frame{Type: serve.FrameHello, Payload: hello.Encode()}); resp.Type != serve.FrameHello {
		t.Fatalf("handshake: %v", resp.Type)
	}
	creq := serve.ConfigureReq{Tenant: "ghost", Alg: "rc6", Key: key, Unroll: 1}
	if resp := rt(serve.Frame{Type: serve.FrameConfigure, Payload: creq.Encode()}); resp.Type != serve.FrameConfigure {
		t.Fatalf("configure: %v", resp.Type)
	}
	bulk := serve.CipherReq{Mode: serve.ModeCTR, IV: testIV, Data: testMessage(64000 * 16)}
	if err := serve.WriteFrame(conn, serve.Frame{Type: serve.FrameEncrypt, Payload: bulk.Encode()}); err != nil {
		t.Fatal(err)
	}
	conn.Close() // mid-request disconnect

	// The session's reader sees the dead socket, cancels the session
	// context, the farm abandons the remaining shards, and every
	// session goroutine exits: back to baseline.
	waitGoroutines(t, baseline, 15*time.Second)
	skipped = sumSeries(s, "cobra_farm_worker_errors_total") - skipped
	if skipped == 0 {
		t.Fatal("no shard was skipped: the request finished before the hang-up cancelled it")
	}
	t.Logf("the hang-up skipped %d shards", skipped)

	// The backend went back to the LRU (CacheHit), and a fresh tenant's
	// stream is untouched by the aborted work.
	after, err := client.Dial(s.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer after.Close()
	ack, err := after.Configure(client.Config{Tenant: "survivor", Alg: "rc6", Key: key, Unroll: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !ack.CacheHit {
		t.Error("abandoned session did not release its backend to the LRU")
	}
	msg := testMessage(32 * 16)
	ct, err := after.Encrypt(serve.ModeCTR, testIV, msg)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(ct, refCTR(blk, testIV, msg)) {
		t.Error("stream corrupted after a mid-request disconnect")
	}
}
