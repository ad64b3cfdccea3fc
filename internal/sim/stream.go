package sim

import "rmcc/internal/workload"

// AccessStream pulls a workload's push-style access stream through a
// bounded channel so simulators can consume it pull-style. The rmccd
// service holds one per workload-bound session so successive replay
// calls continue the same deterministic stream instead of restarting it.
// The generator goroutine exits promptly once the stream is closed.
type AccessStream struct {
	ch      chan []workload.Access
	stop    chan struct{}
	buf     []workload.Access
	idx     int
	drained bool
}

const streamBatch = 2048

// NewAccessStream starts run (a closure invoking Workload.Run with the
// supplied sink) in a goroutine and returns the pull side.
func NewAccessStream(run func(sink workload.Sink)) *AccessStream {
	s := &AccessStream{
		ch:   make(chan []workload.Access, 4),
		stop: make(chan struct{}),
	}
	go func() {
		defer close(s.ch)
		batch := make([]workload.Access, 0, streamBatch)
		run(func(a workload.Access) bool {
			batch = append(batch, a)
			if len(batch) == streamBatch {
				select {
				case s.ch <- batch:
					batch = make([]workload.Access, 0, streamBatch)
					return true
				case <-s.stop:
					return false
				}
			}
			return true
		})
	}()
	return s
}

// Next returns the next access; ok is false once the stream is exhausted
// (only after Close, since workloads loop forever).
func (s *AccessStream) Next() (workload.Access, bool) {
	if s.idx >= len(s.buf) {
		if s.drained {
			return workload.Access{}, false
		}
		buf, ok := <-s.ch
		if !ok {
			s.drained = true
			return workload.Access{}, false
		}
		s.buf, s.idx = buf, 0
	}
	a := s.buf[s.idx]
	s.idx++
	return a, true
}

// Close stops the generator and drains the channel so the goroutine exits.
// Any locally buffered accesses are discarded: after Close, Next never
// yields again.
func (s *AccessStream) Close() {
	close(s.stop)
	for range s.ch {
	}
	s.buf = nil
	s.idx = 0
	s.drained = true
}
