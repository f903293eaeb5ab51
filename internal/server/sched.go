package server

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// Scheduler errors. ErrBusy carries the shed decision to the connection
// layer, which answers with a FrameBusy instead of queueing unboundedly.
var (
	ErrBusy     = errors.New("server: busy")
	ErrDraining = errors.New("server: draining")
)

// SchedConfig sizes the admission layer.
type SchedConfig struct {
	// Workers is the number of execution slots; 0 selects GOMAXPROCS. The
	// slots, not the connection count, bound how many queries contend for
	// the morsel-parallel executor at once.
	Workers int
	// QueueDepth bounds how many requests may wait for a slot; 0 selects
	// 8×Workers. A full queue sheds instead of growing, which is what keeps
	// p99 bounded under overload.
	QueueDepth int
	// AdmissionTimeout is the default queueing deadline: how long a request
	// may wait for a place in the queue and then a slot before it is shed
	// without running; 0 selects 100ms.
	AdmissionTimeout time.Duration
}

func (c SchedConfig) withDefaults() SchedConfig {
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 8 * c.Workers
	}
	if c.AdmissionTimeout <= 0 {
		c.AdmissionTimeout = 100 * time.Millisecond
	}
	return c
}

// Task is one unit of work offered to the scheduler. Exactly one of Run or
// Shed is invoked, on the goroutine that called Submit, before Submit
// returns.
type Task struct {
	// Deadline is the queueing deadline: a task still waiting for a slot
	// when it passes is shed instead of executed late; one that finds a
	// slot free never consults it. Zero selects now+AdmissionTimeout.
	Deadline time.Time
	// Run executes the request and delivers its response.
	Run func()
	// Shed delivers the busy response; code is one of the Busy* constants.
	Shed func(code uint8)
}

// SchedStats is a snapshot of the admission counters.
type SchedStats struct {
	Admitted      uint64 // tasks that got a slot or a place in the queue
	Executed      uint64 // tasks that ran to completion
	ShedQueueFull uint64 // refused: no place in the queue by the deadline
	ShedExpired   uint64 // admitted, but no slot freed up by the deadline
	ShedDraining  uint64 // refused: scheduler shutting down
}

// Shed totals every refusal.
func (s SchedStats) Shed() uint64 { return s.ShedQueueFull + s.ShedExpired + s.ShedDraining }

// Scheduler is the admission layer every request passes through: two
// counting semaphores, Workers execution slots and QueueDepth places to wait
// for one. A task runs on the goroutine that submitted it, so admission
// costs a request no goroutine hand-off. Overload degrades to fast Busy
// responses rather than collapse: no task waits past its deadline, and at
// most Workers run at once.
type Scheduler struct {
	cfg SchedConfig
	// A blocked send on a full channel queues behind the sends blocked
	// before it, and a slot is only ever free when nobody is blocked, so
	// waiters get slots first come, first served.
	running chan struct{} // one element per task holding a slot
	waiting chan struct{} // one element per task queued for a slot

	mu       sync.Mutex
	draining bool
	active   int           // Submit calls past the draining check
	idle     chan struct{} // closed once draining and active == 0

	admitted      atomic.Uint64
	executed      atomic.Uint64
	shedQueueFull atomic.Uint64
	shedExpired   atomic.Uint64
	shedDraining  atomic.Uint64
}

// NewScheduler sizes the admission layer; it starts no goroutine.
func NewScheduler(cfg SchedConfig) *Scheduler {
	cfg = cfg.withDefaults()
	return &Scheduler{
		cfg:     cfg,
		running: make(chan struct{}, cfg.Workers),
		waiting: make(chan struct{}, cfg.QueueDepth),
		idle:    make(chan struct{}),
	}
}

// Workers reports the number of execution slots.
func (s *Scheduler) Workers() int { return s.cfg.Workers }

// QueueDepth reports the admission-queue bound.
func (s *Scheduler) QueueDepth() int { return s.cfg.QueueDepth }

// AdmissionTimeout reports the default queueing deadline.
func (s *Scheduler) AdmissionTimeout() time.Duration { return s.cfg.AdmissionTimeout }

// Submit runs t on the calling goroutine once an execution slot is free, or
// sheds it, and returns when t.Run or t.Shed has returned. With every slot
// taken the caller waits until the task's deadline: that wait is the
// backpressure, and it stalls the submitting connection only. A task out of
// time is shed at its deadline with BusyQueueFull (it never got a place in
// the queue) or BusyExpired (it had one) and ErrBusy is returned; a draining
// scheduler sheds with BusyDraining and returns ErrDraining.
func (s *Scheduler) Submit(t *Task) error {
	if !s.enter() {
		s.shedDraining.Add(1)
		t.Shed(BusyDraining)
		return ErrDraining
	}
	defer s.leave()
	select {
	case s.running <- struct{}{}: // a free slot admits without a clock read or a timer
		s.admitted.Add(1)
	default:
		if code := s.wait(t.Deadline); code != 0 {
			t.Shed(code)
			return ErrBusy
		}
	}
	t.Run()
	<-s.running
	s.executed.Add(1)
	return nil
}

// wait queues the caller for an execution slot. It returns 0 holding one, or
// the Busy code to shed with once the deadline has passed.
func (s *Scheduler) wait(deadline time.Time) uint8 {
	if deadline.IsZero() {
		deadline = time.Now().Add(s.cfg.AdmissionTimeout)
	}
	timer := time.NewTimer(time.Until(deadline))
	defer timer.Stop()
	select {
	case s.waiting <- struct{}{}:
	case <-timer.C:
		s.shedQueueFull.Add(1)
		return BusyQueueFull
	}
	s.admitted.Add(1)
	defer func() { <-s.waiting }()
	select {
	case s.running <- struct{}{}:
		return 0
	case <-timer.C:
		s.shedExpired.Add(1)
		return BusyExpired
	}
}

// enter counts the caller in unless the scheduler is draining.
func (s *Scheduler) enter() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining {
		return false
	}
	s.active++
	return true
}

func (s *Scheduler) leave() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.active--
	if s.draining && s.active == 0 {
		close(s.idle)
	}
}

// Drain stops admission and waits for every task already submitted to
// finish (or the context to expire). Tasks waiting for a slot still run —
// graceful drain completes admitted work; only new submissions are refused.
func (s *Scheduler) Drain(ctx context.Context) error {
	s.mu.Lock()
	if !s.draining {
		s.draining = true
		if s.active == 0 {
			close(s.idle)
		}
	}
	s.mu.Unlock()
	select {
	case <-s.idle:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Stats snapshots the admission counters.
func (s *Scheduler) Stats() SchedStats {
	return SchedStats{
		Admitted:      s.admitted.Load(),
		Executed:      s.executed.Load(),
		ShedQueueFull: s.shedQueueFull.Load(),
		ShedExpired:   s.shedExpired.Load(),
		ShedDraining:  s.shedDraining.Load(),
	}
}
