// Fan-out inside one experiment. The sweep experiments (fig10 and the
// noise studies) repeat one transmission per operating point, each on an
// engine of its own, so those transmissions can run side by side the way
// whole experiments do in the Runner.

package experiments

import (
	"runtime"
	"sync"
	"sync/atomic"

	"gpunoc/internal/config"
)

// fanOut runs call(0) … call(n-1) and returns their results in index order.
// Each call builds its own engines from *cfg, only reads cfg and the inputs
// its caller computed beforehand, and shares nothing mutable with the other
// calls (cfg.Meter is atomic).
//
// Without an observer on cfg the calls run on up to GOMAXPROCS goroutines.
// With one (cfg.Probes or cfg.Telemetry set), or with a single proc, they
// run in index order on the caller's goroutine, exactly like a plain loop:
// telemetry windows are cut on the experiment's cumulative cycle clock, so
// the order of the engines is part of the observed output, and one window
// can straddle two engines, so concurrent engines cannot reproduce that
// stream.
//
// Either way the error returned is the one the plain loop would return, that
// of the lowest failing index, and a panic in a call is re-raised on the
// caller's goroutine.
func fanOut[T any](cfg *config.Config, n int, call func(i int) (T, error)) ([]T, error) {
	out := make([]T, n)
	workers := min(runtime.GOMAXPROCS(0), n)
	if cfg.Probes != nil || cfg.Telemetry != nil || workers < 2 {
		for i := range out {
			var err error
			if out[i], err = call(i); err != nil {
				return nil, err
			}
		}
		return out, nil
	}

	errs := make([]error, n)
	panics := make([]any, n)
	var next atomic.Int64
	var wg sync.WaitGroup
	for range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1) - 1); i < n; i = int(next.Add(1) - 1) {
				func() {
					defer func() { panics[i] = recover() }()
					out[i], errs[i] = call(i)
				}()
			}
		}()
	}
	wg.Wait()
	for i := range out {
		if panics[i] != nil {
			panic(panics[i])
		}
		if errs[i] != nil {
			return nil, errs[i]
		}
	}
	return out, nil
}
