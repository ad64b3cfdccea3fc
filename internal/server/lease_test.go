package server

import (
	"runtime"
	"strings"
	"testing"
	"time"

	"rmcc/internal/workload"
)

// leasedSession registers a canneal session on s and takes its replay
// lease.
func leasedSession(t *testing.T, s *Server) *session {
	t.Helper()
	sc := SessionConfig{Mode: "rmcc", Scheme: "morphable", Seed: 1, Workload: "canneal", Size: "test"}
	sess, err := s.buildSession("s-c105e", sc, time.Now())
	if err != nil {
		t.Fatal(err)
	}
	if err := s.register(sess, time.Now()); err != nil {
		t.Fatal(err)
	}
	if ok, _ := sess.acquire(); !ok {
		t.Fatal("lease busy")
	}
	return sess
}

// TestCloseSkipsLeasedStream: Close must not touch the generator stream
// of a session whose replay lease is held. rmccd's forced drain closes
// the server without waiting for handlers, so a cancelled replay may
// still be pulling from that stream; the holder closes it itself when it
// releases the lease.
func TestCloseSkipsLeasedStream(t *testing.T) {
	s := New(Config{})
	sess := leasedSession(t, s)
	pulled := make(chan error, 1)
	go func() {
		g := &generator{sess: sess, n: 1 << 20, chunk: 4096}
		batch := make([]workload.Access, 0, 4096)
		var err error
		for i := 0; i < 64 && err == nil; i++ {
			batch, err = g.DecodeInto(batch)
		}
		pulled <- err
	}()
	s.Close()
	if err := <-pulled; err != nil {
		t.Fatalf("pulling from the stream while the server closed: %v", err)
	}
	sess.release()
}

// TestHolderEndsStreamAfterClose: a replay that holds the lease through
// Close and then ends on a batch boundary (so settle keeps the stream)
// closes the stream when it releases the lease, and the generator
// goroutine exits.
func TestHolderEndsStreamAfterClose(t *testing.T) {
	s := New(Config{})
	sess := leasedSession(t, s)
	before := streamGoroutines()
	g := &generator{sess: sess, n: 4096, chunk: 4096}
	if _, err := g.DecodeInto(make([]workload.Access, 0, 4096)); err != nil {
		t.Fatal(err)
	}
	var started []string
	for id := range streamGoroutines() {
		if !before[id] {
			started = append(started, id)
		}
	}
	if len(started) != 1 {
		t.Fatalf("%d new generator goroutines, want 1", len(started))
	}
	s.Close()
	// The replay handler's exit path.
	g.settle(g.read)
	sess.release()
	for deadline := time.Now().Add(5 * time.Second); streamGoroutines()[started[0]]; {
		if time.Now().After(deadline) {
			t.Fatalf("generator goroutine %s still running after the holder released the lease", started[0])
		}
		time.Sleep(time.Millisecond)
	}
}

// streamGoroutines returns the IDs of the goroutines running a
// sim.AccessStream generator.
func streamGoroutines() map[string]bool {
	buf := make([]byte, 1<<16)
	for {
		n := runtime.Stack(buf, true)
		if n < len(buf) {
			buf = buf[:n]
			break
		}
		buf = make([]byte, 2*len(buf))
	}
	ids := map[string]bool{}
	for _, g := range strings.Split(string(buf), "\n\n") {
		if strings.Contains(g, "sim.NewAccessStream") {
			ids[strings.Fields(g)[1]] = true
		}
	}
	return ids
}
