package experiments

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"

	"gpunoc/internal/config"
	"gpunoc/internal/probe"
	"gpunoc/internal/telemetry"
)

// fanOutConfigs returns the observer-free config, on which fanOut may run
// calls concurrently, and the two observed ones, on which it must not.
func fanOutConfigs() map[string]*config.Config {
	bare := config.Small()
	probed := config.Small()
	probed.Probes = probe.NewRegistry()
	sampled := config.Small()
	sampled.Telemetry = telemetry.NewSampler(0)
	return map[string]*config.Config{"bare": &bare, "probes": &probed, "telemetry": &sampled}
}

// TestFanOutKeepsIndexOrder: results come back in index order, whatever
// order the calls finish in.
func TestFanOutKeepsIndexOrder(t *testing.T) {
	for name, cfg := range fanOutConfigs() {
		const n = 12
		got, err := fanOut(cfg, n, func(i int) (int, error) {
			time.Sleep(time.Duration((n-i)%3) * time.Millisecond)
			return i * i, nil
		})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(got) != n {
			t.Fatalf("%s: %d results, want %d", name, len(got), n)
		}
		for i, v := range got {
			if v != i*i {
				t.Errorf("%s: result %d = %d, want %d", name, i, v, i*i)
			}
		}
	}
}

// TestFanOutReturnsLowestIndexError: the error is the one a plain loop
// would return, even when a higher index fails first.
func TestFanOutReturnsLowestIndexError(t *testing.T) {
	for name, cfg := range fanOutConfigs() {
		_, err := fanOut(cfg, 8, func(i int) (struct{}, error) {
			switch i {
			case 3:
				time.Sleep(20 * time.Millisecond)
				return struct{}{}, fmt.Errorf("call %d", i)
			case 4, 6:
				return struct{}{}, fmt.Errorf("call %d", i)
			}
			return struct{}{}, nil
		})
		if err == nil || err.Error() != "call 3" {
			t.Errorf("%s: error %v, want call 3", name, err)
		}
	}
}

// TestFanOutReraisesPanic: a panic in a call reaches the caller's
// goroutine with its value, so a recover around the experiment catches it.
func TestFanOutReraisesPanic(t *testing.T) {
	boom := errors.New("boom")
	for name, cfg := range fanOutConfigs() {
		got := func() (p any) {
			defer func() { p = recover() }()
			_, _ = fanOut(cfg, 4, func(i int) (int, error) {
				if i == 2 {
					panic(boom)
				}
				return i, nil
			})
			return nil
		}()
		if got != boom {
			t.Errorf("%s: recovered %v, want %v", name, got, boom)
		}
	}
}

// TestFanOutObservedRunsInOrder: with a probe registry or a telemetry
// sampler on the config, calls run one at a time in index order on the
// caller's goroutine, the order that observer's output depends on.
func TestFanOutObservedRunsInOrder(t *testing.T) {
	for _, name := range []string{"probes", "telemetry"} {
		cfg := fanOutConfigs()[name]
		var mu sync.Mutex
		var order []int
		running := 0
		_, err := fanOut(cfg, 6, func(i int) (int, error) {
			mu.Lock()
			running++
			order = append(order, i)
			overlap := running > 1
			mu.Unlock()
			time.Sleep(time.Millisecond)
			mu.Lock()
			running--
			mu.Unlock()
			if overlap {
				return 0, fmt.Errorf("call %d overlapped another", i)
			}
			return i, nil
		})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for i, v := range order {
			if v != i {
				t.Fatalf("%s: calls ran in order %v", name, order)
			}
		}
	}
}

// TestFanOutOverlapsWithoutObserver: with no observer and more than one
// proc, two calls run at the same time; each waits at a barrier the other
// must reach.
func TestFanOutOverlapsWithoutObserver(t *testing.T) {
	if runtime.GOMAXPROCS(0) < 2 {
		t.Skip("GOMAXPROCS < 2: fanOut runs calls in order")
	}
	cfg := fanOutConfigs()["bare"]
	var arrived sync.WaitGroup
	arrived.Add(2)
	both := make(chan struct{})
	go func() {
		arrived.Wait()
		close(both)
	}()
	_, err := fanOut(cfg, 2, func(i int) (int, error) {
		arrived.Done()
		select {
		case <-both:
			return i, nil
		case <-time.After(10 * time.Second):
			return i, fmt.Errorf("call %d waited 10 s for the other call", i)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}
