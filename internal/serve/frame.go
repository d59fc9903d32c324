// Package serve is the network face of the COBRA reproduction: a TCP
// daemon (cmd/cobrad) that exposes the unified core.Cipher surface to
// remote clients over a length-prefixed binary framing protocol. The
// paper's premise is algorithm-agile crypto as a shared *resource* — one
// reconfigurable part many workloads time-share by swapping microcode,
// not by swapping silicon (§1) — and serve operationalizes exactly that
// deployment shape: each connection is a tenant session that pins a
// (program, key) configuration, a capacity-bounded LRU of configured
// backends lets tenants reuse compiled fastpath traces instead of paying
// reconfiguration per request, and admission control sheds load with a
// typed BUSY error when the farm's queues back up.
//
// This file is the wire layer. Every frame is an 8-byte header followed
// by a payload:
//
//	byte  0     type     (FrameHello .. FrameError)
//	byte  1     flags    (must be 0 in protocol version 1)
//	bytes 2-3   reserved (must be 0)
//	bytes 4-7   payload length, big-endian uint32
//
// Payload encodings are strict: fixed field order, length-prefixed
// byte strings, and no trailing bytes — so decode(encode(x)) == x is a
// fixed point, pinned by FuzzFrameRoundTrip. The same frame types carry
// requests and responses (a CONFIGURE request is answered by a CONFIGURE
// acknowledgement, an ENCRYPT request by an ENCRYPT frame holding the
// ciphertext); failures of any kind come back as an ERROR frame with a
// stable numeric code.
package serve

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
)

// FrameType identifies a frame's meaning. The same type tags a request
// and its successful response.
type FrameType uint8

// The protocol frames.
const (
	// FrameHello opens a session: the client sends its supported version
	// range, the server answers with the negotiated version and its
	// limits. Any other frame first is a sequence error.
	FrameHello FrameType = 1
	// FrameConfigure pins the session's tenant configuration: algorithm,
	// key, unroll depth and tenant label. The response acknowledges with
	// the configured backend's shape.
	FrameConfigure FrameType = 2
	// FrameEncrypt carries a bulk encryption request (mode + optional IV
	// + plaintext); the response frame carries the raw ciphertext.
	FrameEncrypt FrameType = 3
	// FrameDecrypt is FrameEncrypt's inverse direction.
	FrameDecrypt FrameType = 4
	// FrameStats requests the session's accounting; the response payload
	// is JSON (StatsReply).
	FrameStats FrameType = 5
	// FrameError is any failure response: a stable numeric code plus a
	// human-readable message.
	FrameError FrameType = 6

	frameTypeMax = uint8(FrameError)
)

// String names the frame type for logs and errors.
func (t FrameType) String() string {
	switch t {
	case FrameHello:
		return "hello"
	case FrameConfigure:
		return "configure"
	case FrameEncrypt:
		return "encrypt"
	case FrameDecrypt:
		return "decrypt"
	case FrameStats:
		return "stats"
	case FrameError:
		return "error"
	}
	return fmt.Sprintf("frame(%d)", uint8(t))
}

// Version is the protocol version this package implements. HELLO
// negotiation picks the highest version inside both sides' ranges;
// today that is 1 or nothing.
const Version uint16 = 1

// DefaultMaxFrame is the default payload-size ceiling (1 MiB). The
// server advertises its limit in the HELLO acknowledgement; frames
// above the limit are rejected before their payload is read.
const DefaultMaxFrame = 1 << 20

// AbsMaxFrame caps any configured frame limit (16 MiB): the framing
// reads length-then-payload, so the limit bounds per-connection memory.
const AbsMaxFrame = 1 << 24

// helloMagic opens every HELLO payload, so a server can reject a
// non-protocol peer on the first frame.
var helloMagic = [4]byte{'C', 'B', 'R', 'A'}

// headerSize is the fixed frame-header length.
const headerSize = 8

// Framing errors. ErrTooLarge is distinguished so servers can answer
// with CodeTooLarge before hanging up; all other malformations are
// ErrMalformed (wrapped with detail).
var (
	ErrMalformed = errors.New("serve: malformed frame")
	ErrTooLarge  = errors.New("serve: frame exceeds size limit")
)

// Frame is one decoded wire frame.
type Frame struct {
	Type    FrameType
	Payload []byte
}

// AppendFrame appends f's wire encoding to dst and returns the extended
// slice — the allocation-free core of WriteFrame.
func AppendFrame(dst []byte, f Frame) []byte {
	var hdr [headerSize]byte
	hdr[0] = uint8(f.Type)
	binary.BigEndian.PutUint32(hdr[4:], uint32(len(f.Payload)))
	dst = append(dst, hdr[:]...)
	return append(dst, f.Payload...)
}

// WriteFrame writes one frame to w.
func WriteFrame(w io.Writer, f Frame) error {
	if len(f.Payload) > AbsMaxFrame {
		return ErrTooLarge
	}
	var hdr [headerSize]byte
	hdr[0] = uint8(f.Type)
	binary.BigEndian.PutUint32(hdr[4:], uint32(len(f.Payload)))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	_, err := w.Write(f.Payload)
	return err
}

// ReadFrame reads one frame from r, enforcing maxPayload (0 selects
// DefaultMaxFrame). Header violations — unknown type, nonzero flags or
// reserved bytes — return ErrMalformed-wrapped errors; an oversized
// length returns ErrTooLarge without reading the payload.
func ReadFrame(r io.Reader, maxPayload uint32) (Frame, error) {
	if maxPayload == 0 {
		maxPayload = DefaultMaxFrame
	}
	var hdr [headerSize]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return Frame{}, err
	}
	if hdr[0] == 0 || hdr[0] > frameTypeMax {
		return Frame{}, fmt.Errorf("%w: unknown frame type %d", ErrMalformed, hdr[0])
	}
	if hdr[1] != 0 {
		return Frame{}, fmt.Errorf("%w: nonzero flags 0x%02x", ErrMalformed, hdr[1])
	}
	if hdr[2] != 0 || hdr[3] != 0 {
		return Frame{}, fmt.Errorf("%w: nonzero reserved bytes", ErrMalformed)
	}
	n := binary.BigEndian.Uint32(hdr[4:])
	if n > maxPayload {
		return Frame{}, fmt.Errorf("%w: payload %d > limit %d", ErrTooLarge, n, maxPayload)
	}
	f := Frame{Type: FrameType(hdr[0])}
	if n > 0 {
		f.Payload = make([]byte, n)
		if _, err := io.ReadFull(r, f.Payload); err != nil {
			return Frame{}, err
		}
	}
	return f, nil
}

// Error codes carried by FrameError payloads. The values are wire
// protocol — stable across releases.
const (
	// CodeMalformed: the peer's frame or payload failed to decode.
	CodeMalformed uint16 = 1
	// CodeVersion: HELLO version ranges do not overlap.
	CodeVersion uint16 = 2
	// CodeUnsupported: reserved for a valid request the configured
	// backend cannot serve. Every backend serves every mode, so no
	// server sends it.
	CodeUnsupported uint16 = 3
	// CodeSequence: frames out of order (missing HELLO or CONFIGURE).
	CodeSequence uint16 = 4
	// CodeBadRequest: semantically invalid request (unknown algorithm,
	// bad key size, wrong IV length, ragged block length).
	CodeBadRequest uint16 = 5
	// CodeBusy: admission control shed the request — the backend's
	// queues are full. The session stays open; the client should back
	// off and retry.
	CodeBusy uint16 = 6
	// CodeDraining: the server is shutting down gracefully; no further
	// requests will be accepted on this connection.
	CodeDraining uint16 = 7
	// CodeInternal: the backend failed unexpectedly.
	CodeInternal uint16 = 8
	// CodeTooLarge: the request frame exceeded the advertised limit.
	CodeTooLarge uint16 = 9
)

// codeNames maps error codes to the stable snake_case names used in
// metrics labels and messages.
var codeNames = map[uint16]string{
	CodeMalformed:   "malformed",
	CodeVersion:     "version",
	CodeUnsupported: "unsupported",
	CodeSequence:    "sequence",
	CodeBadRequest:  "bad_request",
	CodeBusy:        "busy",
	CodeDraining:    "draining",
	CodeInternal:    "internal",
	CodeTooLarge:    "too_large",
}

// CodeName returns the stable name of a wire error code.
func CodeName(code uint16) string {
	if n, ok := codeNames[code]; ok {
		return n
	}
	return fmt.Sprintf("code_%d", code)
}

// WireError is a decoded FrameError — the typed error the client
// library returns so callers can branch on Code (retry on CodeBusy,
// reconnect elsewhere on CodeDraining).
type WireError struct {
	Code uint16
	Msg  string
}

// Error satisfies the error interface.
func (e *WireError) Error() string {
	return fmt.Sprintf("serve: %s: %s", CodeName(e.Code), e.Msg)
}

// IsBusy reports whether err is a WireError carrying CodeBusy — the
// retryable admission-control shed.
func IsBusy(err error) bool {
	var we *WireError
	return errors.As(err, &we) && we.Code == CodeBusy
}

// IsDraining reports whether err is a WireError carrying CodeDraining.
func IsDraining(err error) bool {
	var we *WireError
	return errors.As(err, &we) && we.Code == CodeDraining
}

// Mode selects the mode of operation of one ENCRYPT/DECRYPT request.
type Mode uint8

// The wire modes.
const (
	ModeECB Mode = 0
	ModeCBC Mode = 1
	ModeCTR Mode = 2
)

// String names the mode.
func (m Mode) String() string {
	switch m {
	case ModeECB:
		return "ecb"
	case ModeCBC:
		return "cbc"
	case ModeCTR:
		return "ctr"
	}
	return fmt.Sprintf("mode(%d)", uint8(m))
}

// ParseMode parses a mode name ("ecb", "cbc", "ctr").
func ParseMode(s string) (Mode, error) {
	switch s {
	case "ecb":
		return ModeECB, nil
	case "cbc":
		return ModeCBC, nil
	case "ctr":
		return ModeCTR, nil
	}
	return 0, fmt.Errorf("serve: unknown mode %q", s)
}

// ---- payload codecs -------------------------------------------------
//
// A tiny strict cursor pair: writers append fixed-width big-endian
// integers and length-prefixed byte strings; readers consume the same
// and fail on truncation, overlength prefixes, or trailing bytes.

type reader struct {
	b   []byte
	err error
}

func (r *reader) u8() uint8 {
	if r.err != nil {
		return 0
	}
	if len(r.b) < 1 {
		r.err = fmt.Errorf("%w: truncated payload", ErrMalformed)
		return 0
	}
	v := r.b[0]
	r.b = r.b[1:]
	return v
}

func (r *reader) u16() uint16 {
	if r.err != nil {
		return 0
	}
	if len(r.b) < 2 {
		r.err = fmt.Errorf("%w: truncated payload", ErrMalformed)
		return 0
	}
	v := binary.BigEndian.Uint16(r.b)
	r.b = r.b[2:]
	return v
}

func (r *reader) u32() uint32 {
	if r.err != nil {
		return 0
	}
	if len(r.b) < 4 {
		r.err = fmt.Errorf("%w: truncated payload", ErrMalformed)
		return 0
	}
	v := binary.BigEndian.Uint32(r.b)
	r.b = r.b[4:]
	return v
}

// bytes16 reads a u16-length-prefixed byte string.
func (r *reader) bytes16() []byte {
	n := int(r.u16())
	if r.err != nil {
		return nil
	}
	if len(r.b) < n {
		r.err = fmt.Errorf("%w: byte string overruns payload", ErrMalformed)
		return nil
	}
	v := r.b[:n:n]
	r.b = r.b[n:]
	return v
}

// bytes32 reads a u32-length-prefixed byte string.
func (r *reader) bytes32() []byte {
	n := r.u32()
	if r.err != nil {
		return nil
	}
	if uint64(len(r.b)) < uint64(n) {
		r.err = fmt.Errorf("%w: byte string overruns payload", ErrMalformed)
		return nil
	}
	v := r.b[:n:n]
	r.b = r.b[n:]
	return v
}

func (r *reader) string16() string { return string(r.bytes16()) }

// done fails unless the payload was consumed exactly.
func (r *reader) done() error {
	if r.err != nil {
		return r.err
	}
	if len(r.b) != 0 {
		return fmt.Errorf("%w: %d trailing bytes", ErrMalformed, len(r.b))
	}
	return nil
}

func putU16(b []byte, v uint16) []byte { return binary.BigEndian.AppendUint16(b, v) }
func putU32(b []byte, v uint32) []byte { return binary.BigEndian.AppendUint32(b, v) }

func putBytes16(b, v []byte) []byte {
	b = putU16(b, uint16(len(v)))
	return append(b, v...)
}

func putBytes32(b, v []byte) []byte {
	b = putU32(b, uint32(len(v)))
	return append(b, v...)
}

// Hello is the client's opening frame: magic plus the [MinVersion,
// MaxVersion] range it speaks.
type Hello struct {
	MinVersion uint16
	MaxVersion uint16
}

// Encode renders the payload.
func (h Hello) Encode() []byte {
	b := append([]byte(nil), helloMagic[:]...)
	b = putU16(b, h.MinVersion)
	return putU16(b, h.MaxVersion)
}

// DecodeHello parses a HELLO payload.
func DecodeHello(p []byte) (Hello, error) {
	r := reader{b: p}
	var magic [4]byte
	magic[0], magic[1], magic[2], magic[3] = r.u8(), r.u8(), r.u8(), r.u8()
	h := Hello{MinVersion: r.u16(), MaxVersion: r.u16()}
	if err := r.done(); err != nil {
		return Hello{}, err
	}
	if magic != helloMagic {
		return Hello{}, fmt.Errorf("%w: bad hello magic %q", ErrMalformed, magic[:])
	}
	if h.MinVersion > h.MaxVersion {
		return Hello{}, fmt.Errorf("%w: inverted version range %d..%d", ErrMalformed, h.MinVersion, h.MaxVersion)
	}
	return h, nil
}

// HelloAck is the server's HELLO response: the negotiated version and
// the server's advertised shape and limits.
type HelloAck struct {
	Version  uint16
	MaxFrame uint32
	// Backend is the server's backend kind ("device" or "farm").
	Backend string
	// Workers is the per-backend parallel width (1 for device).
	Workers uint16
}

// Encode renders the payload.
func (h HelloAck) Encode() []byte {
	b := append([]byte(nil), helloMagic[:]...)
	b = putU16(b, h.Version)
	b = putU32(b, h.MaxFrame)
	b = putBytes16(b, []byte(h.Backend))
	return putU16(b, h.Workers)
}

// DecodeHelloAck parses a server HELLO payload.
func DecodeHelloAck(p []byte) (HelloAck, error) {
	r := reader{b: p}
	var magic [4]byte
	magic[0], magic[1], magic[2], magic[3] = r.u8(), r.u8(), r.u8(), r.u8()
	h := HelloAck{Version: r.u16(), MaxFrame: r.u32(), Backend: r.string16(), Workers: r.u16()}
	if err := r.done(); err != nil {
		return HelloAck{}, err
	}
	if magic != helloMagic {
		return HelloAck{}, fmt.Errorf("%w: bad hello magic %q", ErrMalformed, magic[:])
	}
	return h, nil
}

// ConfigureReq pins a session's tenant configuration.
type ConfigureReq struct {
	// Tenant labels the session's metric series; [a-zA-Z0-9._-], at
	// most MaxTenantLen bytes.
	Tenant string
	// Alg names the algorithm ("rc6", "rijndael", "serpent").
	Alg string
	// Key is the raw key (length validated by the cipher).
	Key []byte
	// Unroll is the requested unroll depth; 0 selects the full unroll.
	Unroll uint16
}

// MaxTenantLen bounds tenant label length on the wire.
const MaxTenantLen = 64

// Encode renders the payload.
func (c ConfigureReq) Encode() []byte {
	b := putBytes16(nil, []byte(c.Tenant))
	b = putBytes16(b, []byte(c.Alg))
	b = putBytes16(b, c.Key)
	return putU16(b, c.Unroll)
}

// DecodeConfigureReq parses a CONFIGURE request payload.
func DecodeConfigureReq(p []byte) (ConfigureReq, error) {
	r := reader{b: p}
	c := ConfigureReq{Tenant: r.string16(), Alg: r.string16()}
	c.Key = append([]byte(nil), r.bytes16()...)
	c.Unroll = r.u16()
	if err := r.done(); err != nil {
		return ConfigureReq{}, err
	}
	if len(c.Tenant) > MaxTenantLen {
		return ConfigureReq{}, fmt.Errorf("%w: tenant label longer than %d bytes", ErrMalformed, MaxTenantLen)
	}
	for i := 0; i < len(c.Tenant); i++ {
		ch := c.Tenant[i]
		ok := ch >= 'a' && ch <= 'z' || ch >= 'A' && ch <= 'Z' ||
			ch >= '0' && ch <= '9' || ch == '.' || ch == '_' || ch == '-'
		if !ok {
			return ConfigureReq{}, fmt.Errorf("%w: tenant label byte %q", ErrMalformed, ch)
		}
	}
	return c, nil
}

// ConfigureAck acknowledges a CONFIGURE with the backend's shape.
type ConfigureAck struct {
	// Backend is "device" or "farm".
	Backend string
	// Workers is the backend's parallel width.
	Workers uint16
	// Rows/Unroll are the configured array geometry (Table 3 shape).
	Rows   uint16
	Unroll uint16
	// Fastpath reports whether bulk requests run on the trace-compiled
	// executor.
	Fastpath bool
	// CacheHit reports whether the configuration reused an
	// already-configured backend from the server's LRU (no
	// reconfiguration was paid).
	CacheHit bool
}

// Encode renders the payload.
func (c ConfigureAck) Encode() []byte {
	b := putBytes16(nil, []byte(c.Backend))
	b = putU16(b, c.Workers)
	b = putU16(b, c.Rows)
	b = putU16(b, c.Unroll)
	b = append(b, boolByte(c.Fastpath), boolByte(c.CacheHit))
	return b
}

// DecodeConfigureAck parses a CONFIGURE acknowledgement payload.
func DecodeConfigureAck(p []byte) (ConfigureAck, error) {
	r := reader{b: p}
	c := ConfigureAck{Backend: r.string16(), Workers: r.u16(), Rows: r.u16(), Unroll: r.u16()}
	fp, hit := r.u8(), r.u8()
	if err := r.done(); err != nil {
		return ConfigureAck{}, err
	}
	if fp > 1 || hit > 1 {
		return ConfigureAck{}, fmt.Errorf("%w: non-boolean flag byte", ErrMalformed)
	}
	c.Fastpath, c.CacheHit = fp == 1, hit == 1
	return c, nil
}

func boolByte(v bool) byte {
	if v {
		return 1
	}
	return 0
}

// CipherReq is the shared ENCRYPT/DECRYPT request payload: a mode, an
// IV for the chained/counter modes, and the data. The response payload
// is the raw transformed bytes with no further structure.
type CipherReq struct {
	Mode Mode
	// IV must be empty for ECB and exactly 16 bytes otherwise.
	IV   []byte
	Data []byte
}

// Encode renders the payload.
func (c CipherReq) Encode() []byte {
	b := []byte{uint8(c.Mode)}
	b = putBytes16(b, c.IV)
	return putBytes32(b, c.Data)
}

// DecodeCipherReq parses an ENCRYPT/DECRYPT request payload.
func DecodeCipherReq(p []byte) (CipherReq, error) {
	r := reader{b: p}
	c := CipherReq{Mode: Mode(r.u8())}
	c.IV = append([]byte(nil), r.bytes16()...)
	c.Data = append([]byte(nil), r.bytes32()...)
	if err := r.done(); err != nil {
		return CipherReq{}, err
	}
	if c.Mode > ModeCTR {
		return CipherReq{}, fmt.Errorf("%w: unknown mode %d", ErrMalformed, uint8(c.Mode))
	}
	switch c.Mode {
	case ModeECB:
		if len(c.IV) != 0 {
			return CipherReq{}, fmt.Errorf("%w: ecb carries no IV", ErrMalformed)
		}
	default:
		if len(c.IV) != 16 {
			return CipherReq{}, fmt.Errorf("%w: %s IV must be 16 bytes, got %d", ErrMalformed, c.Mode, len(c.IV))
		}
	}
	return c, nil
}

// EncodeError renders an ERROR payload.
func EncodeError(code uint16, msg string) []byte {
	b := putU16(nil, code)
	return putBytes16(b, []byte(msg))
}

// DecodeError parses an ERROR payload.
func DecodeError(p []byte) (*WireError, error) {
	r := reader{b: p}
	e := &WireError{Code: r.u16(), Msg: r.string16()}
	if err := r.done(); err != nil {
		return nil, err
	}
	return e, nil
}
