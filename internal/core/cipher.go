// The unified cipher API: one interface served by a single device and by
// a tenant of a multi-device farm, so code written against it runs
// unchanged on one simulated COBRA part (Configure) or on a pool
// (farm.NewPool, then Pool.Open).
package core

import (
	"context"

	"cobra/internal/sim"
)

// Cipher is the backend-independent encryption surface. Both *core.Device
// (one COBRA chip) and *farm.Farm (a device pool) satisfy it, so callers
// written against Cipher swap between single-device and farm execution
// without code changes; the compile-time assertions live here and in
// package farm, and the behavioral swap test in farm's cipher_test.go.
//
// Signature convention (the API-redesign decision, documented here): the
// interface adopts the farm's context-taking signatures and the Device
// was migrated to match, rather than giving the farm context-free
// wrappers. Cancellation is a production requirement — a farm must stop
// sharding when the caller gives up — and a context-free interface would
// silently discard it for the scalable backend; the single device instead
// checks the context between bulk batches and chained blocks, where a
// simulated workload can actually be abandoned.
//
// Feedback modes are part of the surface: a farm serves EncryptCBC by
// serializing the whole message onto one worker (the Table 1 FB-column
// penalty made operational), so mode coverage does not depend on the
// backend.
type Cipher interface {
	// Algorithm returns the configured algorithm.
	Algorithm() Algorithm
	// BlockSize returns the cipher block size in bytes.
	BlockSize() int
	// EncryptECB encrypts src (a multiple of BlockSize) in
	// electronic-codebook mode.
	EncryptECB(ctx context.Context, src []byte) ([]byte, error)
	// EncryptCBC encrypts src in cipher-block-chaining mode under a
	// 16-byte IV (a feedback mode: serialized on every backend).
	EncryptCBC(ctx context.Context, iv, src []byte) ([]byte, error)
	// EncryptCTR encrypts src in counter mode with initial counter block
	// iv; src may end in a partial block.
	EncryptCTR(ctx context.Context, iv, src []byte) ([]byte, error)
	// DecryptCTR inverts EncryptCTR (counter mode is an involution).
	DecryptCTR(ctx context.Context, iv, src []byte) ([]byte, error)
	// DecryptECB inverts EncryptECB on the decryption datapath. Like ECB
	// encryption it is a non-feedback direction (Table 1), so a farm
	// shards it across the pool.
	DecryptECB(ctx context.Context, src []byte) ([]byte, error)
	// DecryptCBC inverts EncryptCBC. Unlike CBC *encryption*, CBC
	// decryption is embarrassingly parallel — P[k] = D(C[k]) xor C[k-1]
	// needs only the previous *ciphertext* block, which the caller
	// already holds — so a farm shards it too, with shard boundaries
	// overlapping the ciphertext by one block.
	DecryptCBC(ctx context.Context, iv, src []byte) ([]byte, error)
	// Summary returns the backend-independent performance view, derived
	// from the backend's obs registry. The richer backend-specific
	// reports remain available as Device.Report and Farm.Report, both of
	// which embed Summary.
	Summary() Summary
	// ResetStats zeroes the performance counters between measurement
	// phases. Safe to call while requests are in flight (the reset is a
	// snapshot of atomic counters; exported /metrics series stay
	// monotonic).
	ResetStats()
}

// Summary is the shared report core: every field has a stable snake_case
// JSON tag, pinned by golden tests in core and farm, and the same
// quantities back the /metrics counter families — one bookkeeping path
// from the simulator to every output format.
type Summary struct {
	Algorithm Algorithm `json:"algorithm"`
	// Backend identifies the implementation ("device" or "farm").
	Backend string `json:"backend"`
	// Workers is the parallel width (1 for a single device).
	Workers int `json:"workers"`
	// Unroll is the configured unroll depth (Table 3's "Rnds").
	Unroll int `json:"unroll"`
	// Rows is the array geometry in rows.
	Rows int `json:"rows"`
	// Stats aggregates the simulator counters of every bulk encryption
	// since configuration or the last ResetStats, across all workers and
	// both execution engines.
	Stats sim.Stats `json:"stats"`
	// CyclesPerBlock is Stats.Cycles/Stats.BlocksOut (0 before traffic).
	CyclesPerBlock float64 `json:"cycles_per_block"`
	// DatapathMHz is the modeled datapath clock.
	DatapathMHz float64 `json:"datapath_mhz"`
	// ThroughputMbps is the modeled aggregate throughput: per-device
	// Table 3 rate for a device, simulated wall-clock rate for a farm.
	ThroughputMbps float64 `json:"throughput_mbps"`
}

// Device satisfies the unified API (farm.Farm's twin assertion lives in
// package farm, which core cannot import).
var _ Cipher = (*Device)(nil)
