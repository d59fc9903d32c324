package farm

// The -race regression for the farm's concurrency contract: sim.Machine
// and core.Device are not safe for concurrent use, so the farm must never
// let two goroutines touch one device. These tests hammer a small pool
// from many caller goroutines — with interleaved Report snapshots and a
// racing Close — and every ciphertext is still checked against the host
// reference. Run with `go test -race ./internal/farm/...`: if a device
// (and hence its machine's queues and counters) were ever shared, the race
// detector fires on the unsynchronized state.

import (
	"bytes"
	"context"
	"errors"
	"sync"
	"testing"

	"cobra/internal/core"
)

func TestFarmNeverSharesDevicesBetweenGoroutines(t *testing.T) {
	f := openFarm(t, 4, core.Rijndael, core.Config{})
	ref := reference(t, core.Rijndael)
	const callers = 8
	var wg sync.WaitGroup
	errc := make(chan error, callers)
	for g := 0; g < callers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			iv := bytes.Repeat([]byte{byte(g)}, 16)
			for i := 0; i < 4; i++ {
				msg := testMessage(16*32 + g) // partial tails too
				got, err := f.EncryptCTR(context.Background(), iv, msg)
				if err != nil {
					errc <- err
					return
				}
				if want := refCTR(t, ref, iv, msg); !bytes.Equal(got, want) {
					errc <- errors.New("concurrent caller got corrupted ciphertext")
					return
				}
			}
		}(g)
	}
	// Snapshot the counters while the pool is under load: Report must not
	// race with the workers' accumulation.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 50; i++ {
			_ = f.Report()
		}
	}()
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Error(err)
	}
	r := f.Report()
	if r.Stats.BlocksOut == 0 {
		t.Error("no blocks recorded across concurrent callers")
	}
}

// TestFarmCloseRacesWithCallers drives Encrypt calls concurrently with
// Close: every call must either succeed with a verified ciphertext or
// fail with ErrClosed — never corrupt, never deadlock, never race.
func TestFarmCloseRacesWithCallers(t *testing.T) {
	f := openFarm(t, 2, core.Rijndael, core.Config{Unroll: 2})
	ref := reference(t, core.Rijndael)
	iv := make([]byte, 16)
	var wg sync.WaitGroup
	errc := make(chan error, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			msg := testMessage(16 * 8)
			got, err := f.EncryptCTR(context.Background(), iv, msg)
			if errors.Is(err, ErrClosed) {
				return
			}
			if err != nil {
				errc <- err
				return
			}
			if want := refCTR(t, ref, iv, msg); !bytes.Equal(got, want) {
				errc <- errors.New("ciphertext corrupted during close race")
			}
		}()
	}
	f.Close()
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Error(err)
	}
}
