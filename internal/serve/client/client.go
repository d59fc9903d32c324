// Package client is the Go client for the cobrad wire protocol
// (package cobra/internal/serve): a thin, synchronous session handle
// used by cmd/cobra-cli, the rewired vpn-gateway example, and the serve
// test suite's soak clients.
//
// A Client is one tenant session: Dial performs the HELLO version
// handshake, Configure pins a (program, key) backend on the server, and
// Encrypt/Decrypt/Stats issue one request each. A Client is not safe
// for concurrent use — the protocol is strictly request/response per
// connection; open one Client per goroutine (they are cheap, and the
// server shares configured backends across sessions).
package client

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net"
	"time"

	"cobra/internal/serve"
)

// Config names a tenant's cipher configuration, mirroring the wire
// CONFIGURE request.
type Config struct {
	Tenant string // tenant label for the server's metrics ("" = "default")
	Alg    string // "rc6", "rijndael", "serpent"
	Key    []byte
	Unroll int // unroll depth (0: full unroll)
}

// Client is one session with a cobrad server.
type Client struct {
	conn  net.Conn
	br    *bufio.Reader
	bw    *bufio.Writer
	hello serve.HelloAck
	err   error // sticky transport/protocol failure
}

// Dial connects to a cobrad server and performs the HELLO handshake.
func Dial(addr string) (*Client, error) {
	return DialContext(context.Background(), addr)
}

// DialContext is Dial bounded by ctx (connection establishment and the
// handshake round trip).
func DialContext(ctx context.Context, addr string) (*Client, error) {
	var d net.Dialer
	conn, err := d.DialContext(ctx, "tcp", addr)
	if err != nil {
		return nil, err
	}
	c := &Client{conn: conn, br: bufio.NewReader(conn), bw: bufio.NewWriter(conn)}
	if deadline, ok := ctx.Deadline(); ok {
		_ = conn.SetDeadline(deadline)
	}
	resp, err := c.roundTrip(serve.Frame{
		Type:    serve.FrameHello,
		Payload: serve.Hello{MinVersion: serve.Version, MaxVersion: serve.Version}.Encode(),
	})
	if err != nil {
		conn.Close()
		return nil, fmt.Errorf("client: handshake: %w", err)
	}
	c.hello, err = serve.DecodeHelloAck(resp.Payload)
	if err != nil {
		conn.Close()
		return nil, fmt.Errorf("client: handshake: %w", err)
	}
	_ = conn.SetDeadline(time.Time{})
	return c, nil
}

// Hello returns the server's handshake parameters (negotiated version,
// frame-size ceiling, backend kind and width).
func (c *Client) Hello() serve.HelloAck { return c.hello }

// Close tears the session down; the server releases the pinned backend
// back to its LRU.
func (c *Client) Close() error { return c.conn.Close() }

// roundTrip writes one request frame and reads the response. An ERROR
// response decodes to *serve.WireError (test with serve.IsBusy /
// serve.IsDraining); any transport or framing failure is sticky and
// poisons the session.
func (c *Client) roundTrip(req serve.Frame) (serve.Frame, error) {
	if c.err != nil {
		return serve.Frame{}, c.err
	}
	fail := func(err error) (serve.Frame, error) {
		c.err = err
		return serve.Frame{}, err
	}
	if err := serve.WriteFrame(c.bw, req); err != nil {
		return fail(err)
	}
	if err := c.bw.Flush(); err != nil {
		return fail(err)
	}
	resp, err := serve.ReadFrame(c.br, c.hello.MaxFrame)
	if err != nil {
		return fail(err)
	}
	if resp.Type == serve.FrameError {
		we, err := serve.DecodeError(resp.Payload)
		if err != nil {
			return fail(err)
		}
		// Application-level error: the session itself stays usable
		// (unless the server hung up, which the next round trip reports).
		return serve.Frame{}, we
	}
	if resp.Type != req.Type {
		return fail(fmt.Errorf("client: server answered %v to %v", resp.Type, req.Type))
	}
	return resp, nil
}

// Configure pins a cipher configuration for this session and returns
// the server's description of the backing device or farm. Reconfiguring
// an existing session is allowed (the previous backend is released).
// A full backend cache reports BUSY (serve.IsBusy). An Unroll the wire's
// 16-bit field cannot carry is refused before any frame is sent.
func (c *Client) Configure(cfg Config) (serve.ConfigureAck, error) {
	if cfg.Unroll < 0 || cfg.Unroll > math.MaxUint16 {
		return serve.ConfigureAck{}, fmt.Errorf("client: unroll depth %d out of range 0..%d", cfg.Unroll, math.MaxUint16)
	}
	req := serve.ConfigureReq{
		Tenant: cfg.Tenant,
		Alg:    cfg.Alg,
		Key:    cfg.Key,
		Unroll: uint16(cfg.Unroll),
	}
	resp, err := c.roundTrip(serve.Frame{Type: serve.FrameConfigure, Payload: req.Encode()})
	if err != nil {
		return serve.ConfigureAck{}, err
	}
	ack, err := serve.DecodeConfigureAck(resp.Payload)
	if err != nil {
		c.err = err
		return serve.ConfigureAck{}, err
	}
	return ack, nil
}

// Encrypt runs one encryption request. iv must be empty for ECB and 16
// bytes for CBC/CTR; data must be a positive multiple of 16 bytes for
// ECB/CBC. Admission-control rejection reports BUSY (serve.IsBusy) —
// the session survives it, so callers back off and retry.
func (c *Client) Encrypt(mode serve.Mode, iv, data []byte) ([]byte, error) {
	return c.cipher(serve.FrameEncrypt, mode, iv, data)
}

// Decrypt runs one decryption request; every mode decrypts on both
// backends (a farm shards ECB and CBC decryption like encryption).
func (c *Client) Decrypt(mode serve.Mode, iv, data []byte) ([]byte, error) {
	return c.cipher(serve.FrameDecrypt, mode, iv, data)
}

func (c *Client) cipher(t serve.FrameType, mode serve.Mode, iv, data []byte) ([]byte, error) {
	req := serve.CipherReq{Mode: mode, IV: iv, Data: data}
	resp, err := c.roundTrip(serve.Frame{Type: t, Payload: req.Encode()})
	if err != nil {
		return nil, err
	}
	return resp.Payload, nil
}

// Stats fetches the per-tenant counters and the pinned backend's
// performance summary.
func (c *Client) Stats() (serve.StatsReply, error) {
	resp, err := c.roundTrip(serve.Frame{Type: serve.FrameStats})
	if err != nil {
		return serve.StatsReply{}, err
	}
	var reply serve.StatsReply
	if err := json.Unmarshal(resp.Payload, &reply); err != nil {
		c.err = err
		return serve.StatsReply{}, err
	}
	return reply, nil
}
