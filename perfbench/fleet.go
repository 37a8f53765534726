package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"cogg/internal/server"
)

// replica is one cogd daemon served on a loopback listener inside the
// benchmark process.
type replica struct {
	url  string
	srv  *server.Server
	hs   *http.Server
	done chan struct{} // closed when Serve returns
}

// lateHandler answers 404 until its daemon exists. The fleet's
// listeners open before any daemon is built, so every replica can name
// every peer; a peer asked for an artifact before it is up answers a
// plain miss, as an empty cache would.
type lateHandler struct{ h atomic.Pointer[http.Handler] }

func (l *lateHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if h := l.h.Load(); h != nil {
		(*h).ServeHTTP(w, r)
		return
	}
	http.NotFound(w, r)
}

// fleet is a set of replicas that peer each other's blob tiers.
type fleet struct{ reps []*replica }

// startFleet builds n daemons with default options and empty caches on
// loopback listeners, the second and later ones peering every other
// replica's artifact tier (n > 1), and returns once every replica
// answers /readyz. The returned duration is that set-up time: it covers
// the cold SLR table construction of the first replica and the peer
// warm fetch of the others.
func startFleet(n int) (*fleet, time.Duration, error) {
	t0 := time.Now()
	f := &fleet{}
	handlers := make([]*lateHandler, n)
	for i := 0; i < n; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			f.stop()
			return nil, 0, err
		}
		handlers[i] = &lateHandler{}
		r := &replica{
			url:  "http://" + ln.Addr().String(),
			hs:   &http.Server{Handler: handlers[i]},
			done: make(chan struct{}),
		}
		go func() {
			defer close(r.done)
			_ = r.hs.Serve(ln) // returns http.ErrServerClosed on shutdown
		}()
		f.reps = append(f.reps, r)
	}
	for i, r := range f.reps {
		opts := server.Options{Process: fmt.Sprintf("cogd@replica%d", i)}
		if n > 1 {
			for j, p := range f.reps {
				if j != i {
					opts.BlobPeers = append(opts.BlobPeers, p.url)
				}
			}
		}
		srv, err := server.New(opts)
		if err != nil {
			f.stop()
			return nil, 0, fmt.Errorf("starting replica %d: %w", i, err)
		}
		r.srv = srv
		h := srv.Handler()
		handlers[i].h.Store(&h)
	}
	for _, r := range f.reps {
		if err := waitReady(r.url); err != nil {
			f.stop()
			return nil, 0, err
		}
	}
	return f, time.Since(t0), nil
}

func waitReady(url string) error {
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, err := http.Get(url + "/readyz")
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("replica %s never became ready: %v", url, err)
		}
		time.Sleep(time.Millisecond)
	}
}

// stop shuts every replica down and waits until its listener and
// daemon goroutines have exited.
func (f *fleet) stop() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	var wg sync.WaitGroup
	for _, r := range f.reps {
		wg.Add(1)
		go func(r *replica) {
			defer wg.Done()
			if err := r.hs.Shutdown(ctx); err != nil && !errors.Is(err, http.ErrServerClosed) {
				_ = r.hs.Close()
			}
			<-r.done
			if r.srv != nil {
				_ = r.srv.Drain(ctx)
				r.srv.Close()
			}
		}(r)
	}
	wg.Wait()
}

// setupFleet starts a fleet reps times from empty caches, stopping all
// but the last, and returns the last one with the median set-up time.
func setupFleet(n, reps int) (*fleet, float64, error) {
	var times []float64
	var f *fleet
	for i := 0; i < reps; i++ {
		if f != nil {
			f.stop()
		}
		var d time.Duration
		var err error
		if f, d, err = startFleet(n); err != nil {
			return nil, 0, err
		}
		times = append(times, d.Seconds())
	}
	return f, median(times), nil
}
