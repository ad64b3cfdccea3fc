package server

import (
	"testing"
	"time"

	"rmcc/internal/workload"
)

// TestCloseSkipsLeasedStream: Close must not touch the generator stream
// of a session whose replay lease is held. rmccd's forced drain closes
// the server without waiting for handlers, so a cancelled replay may
// still be pulling from that stream; the holder closes it itself.
func TestCloseSkipsLeasedStream(t *testing.T) {
	s := New(Config{})
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
	sess.stream.Close()
	sess.release()
}
