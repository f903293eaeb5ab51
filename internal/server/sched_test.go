package server

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// HoldSlot submits a task that occupies an execution slot until the returned
// release is called (at the latest by the test's cleanup, so a failing
// assertion never leaves a slot held for a Drain); it returns once the task is
// running. Exported, like the two helpers after it, for package server_test.
func HoldSlot(t *testing.T, s *Scheduler) (release func()) {
	t.Helper()
	gate, started, done := make(chan struct{}), make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		err := s.Submit(&Task{
			Deadline: time.Now().Add(time.Minute),
			Run:      func() { close(started); <-gate },
			Shed:     func(code uint8) { t.Errorf("holder shed with code %d", code); close(started) },
		})
		if err != nil {
			t.Errorf("holder: %v", err)
		}
	}()
	<-started
	var once sync.Once
	release = func() { once.Do(func() { close(gate) }); <-done }
	t.Cleanup(release)
	return release
}

// WaitAdmitted blocks until n tasks have a slot or a place in the queue.
func WaitAdmitted(t *testing.T, s *Scheduler, n uint64) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); s.Stats().Admitted < n; {
		if time.Now().After(deadline) {
			t.Fatalf("admitted %d tasks, want %d", s.Stats().Admitted, n)
		}
		time.Sleep(100 * time.Microsecond)
	}
}

// WaitDraining blocks until s refuses new work: the refusal is what tells a
// test that a Drain running on another goroutine has taken effect.
func WaitDraining(t *testing.T, s *Scheduler) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); ; {
		var code uint8
		err := s.Submit(&Task{
			Deadline: time.Now(), // not draining yet: shed at once, try again
			Run:      func() { t.Error("task ran on a draining scheduler") },
			Shed:     func(c uint8) { code = c },
		})
		if err == ErrDraining {
			if code != BusyDraining {
				t.Fatalf("shed code = %d, want BusyDraining", code)
			}
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("submit during drain: %v, want ErrDraining", err)
		}
	}
}

// TestSchedulerRunsTasksOnTheCaller: Submit is synchronous — the task has
// run, on the submitting goroutine, when it returns — and starts no
// goroutine of its own.
func TestSchedulerRunsTasksOnTheCaller(t *testing.T) {
	before := runtime.NumGoroutine()
	s := NewScheduler(SchedConfig{Workers: 2})
	if n := runtime.NumGoroutine(); n > before {
		t.Fatalf("NewScheduler started %d goroutines", n-before)
	}
	ran := 0 // unsynchronized on purpose: -race fails if Run leaves the caller
	for i := 0; i < 50; i++ {
		err := s.Submit(&Task{
			Run:  func() { ran++ },
			Shed: func(code uint8) { t.Errorf("shed with code %d", code) },
		})
		if err != nil {
			t.Fatalf("Submit: %v", err)
		}
		if ran != i+1 {
			t.Fatalf("Submit %d returned before its task ran", i)
		}
	}
	st := s.Stats()
	if st.Executed != 50 || st.Admitted != 50 || st.Shed() != 0 {
		t.Fatalf("stats %+v", st)
	}
}

func TestSchedulerDefaults(t *testing.T) {
	s := NewScheduler(SchedConfig{})
	if s.Workers() < 1 {
		t.Fatalf("workers = %d", s.Workers())
	}
	if s.QueueDepth() != 8*s.Workers() {
		t.Fatalf("queue depth = %d, want %d", s.QueueDepth(), 8*s.Workers())
	}
	if s.AdmissionTimeout() != 100*time.Millisecond {
		t.Fatalf("admission timeout = %v", s.AdmissionTimeout())
	}
}

// TestSchedulerBoundsConcurrency: however many goroutines submit, at most
// Workers tasks run at once and every one of them runs.
func TestSchedulerBoundsConcurrency(t *testing.T) {
	const workers, submitters = 3, 24
	s := NewScheduler(SchedConfig{Workers: workers, QueueDepth: submitters, AdmissionTimeout: time.Minute})
	var running, peak, ran atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < submitters; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			err := s.Submit(&Task{
				Run: func() {
					n := running.Add(1)
					for p := peak.Load(); n > p && !peak.CompareAndSwap(p, n); p = peak.Load() {
					}
					time.Sleep(time.Millisecond)
					running.Add(-1)
					ran.Add(1)
				},
				Shed: func(code uint8) { t.Errorf("shed with code %d", code) },
			})
			if err != nil {
				t.Errorf("Submit: %v", err)
			}
		}()
	}
	wg.Wait()
	if ran.Load() != submitters || peak.Load() > workers {
		t.Fatalf("ran %d of %d, %d at once with %d slots", ran.Load(), submitters, peak.Load(), workers)
	}
}

// TestSchedulerShedsOnFullQueue: with the lone slot held and the queue full,
// a submit sheds at its deadline instead of queueing unboundedly — the
// property that bounds p99 under overload.
func TestSchedulerShedsOnFullQueue(t *testing.T) {
	s := NewScheduler(SchedConfig{Workers: 1, QueueDepth: 1, AdmissionTimeout: time.Minute})
	release := HoldSlot(t, s)
	// Fill the single place in the queue.
	queued := make(chan error, 1)
	var queuedRan atomic.Bool
	go func() {
		queued <- s.Submit(&Task{
			Run:  func() { queuedRan.Store(true) },
			Shed: func(code uint8) { t.Errorf("queued task shed with code %d", code) },
		})
	}()
	WaitAdmitted(t, s, 2)

	// Slot held, queue full: this one must shed by its deadline.
	var code uint8
	start := time.Now()
	err := s.Submit(&Task{
		Deadline: start.Add(10 * time.Millisecond),
		Run:      func() { t.Error("task ran despite full queue") },
		Shed:     func(c uint8) { code = c },
	})
	if err != ErrBusy || code != BusyQueueFull {
		t.Fatalf("err = %v, code = %d; want ErrBusy, BusyQueueFull", err, code)
	}
	if waited := time.Since(start); waited < 10*time.Millisecond {
		t.Fatalf("shed after %v, before its deadline", waited)
	}
	release()
	if err := <-queued; err != nil || !queuedRan.Load() {
		t.Fatalf("queued task: err %v, ran %v", err, queuedRan.Load())
	}
	if st := s.Stats(); st.ShedQueueFull != 1 || st.Executed != 2 || st.Admitted != 2 {
		t.Fatalf("stats %+v", st)
	}
}

// TestSchedulerShedsExpiredAtDeadline: a task with a place in the queue is
// shed when its deadline passes, while the slot is still held — not whenever
// the slot's holder gets round to finishing.
func TestSchedulerShedsExpiredAtDeadline(t *testing.T) {
	s := NewScheduler(SchedConfig{Workers: 1, QueueDepth: 4, AdmissionTimeout: time.Minute})
	HoldSlot(t, s) // released by cleanup: the slot stays taken throughout
	var code uint8
	start := time.Now()
	err := s.Submit(&Task{
		Deadline: start.Add(50 * time.Millisecond), // long enough that it has queued by then
		Run:      func() { t.Error("expired task ran") },
		Shed:     func(c uint8) { code = c },
	})
	if err != ErrBusy || code != BusyExpired {
		t.Fatalf("err = %v, code = %d; want ErrBusy, BusyExpired", err, code)
	}
	if waited := time.Since(start); waited < 50*time.Millisecond {
		t.Fatalf("shed after %v, before its deadline", waited)
	}
	if st := s.Stats(); st.ShedExpired != 1 || st.Admitted != 2 || st.Executed != 0 {
		t.Fatalf("stats %+v", st)
	}
}

// TestSchedulerDrainCompletesAdmittedWork: Drain refuses new submissions but
// waits for the running task and runs everything queued behind it.
func TestSchedulerDrainCompletesAdmittedWork(t *testing.T) {
	s := NewScheduler(SchedConfig{Workers: 1, QueueDepth: 8, AdmissionTimeout: time.Minute})
	release := HoldSlot(t, s)
	var ran atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < 5; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			s.Submit(&Task{
				Run:  func() { ran.Add(1) },
				Shed: func(code uint8) { t.Errorf("admitted task shed with code %d", code) },
			})
		}()
	}
	WaitAdmitted(t, s, 6)
	drained := make(chan error, 1)
	go func() { drained <- s.Drain(context.Background()) }()

	WaitDraining(t, s)
	select {
	case err := <-drained:
		t.Fatalf("Drain returned %v with admitted work outstanding", err)
	default:
	}

	release()
	if err := <-drained; err != nil {
		t.Fatalf("Drain: %v", err)
	}
	wg.Wait()
	if ran.Load() != 5 {
		t.Fatalf("drain completed %d of 5 queued tasks", ran.Load())
	}
}

func TestSchedulerDrainContextExpiry(t *testing.T) {
	s := NewScheduler(SchedConfig{Workers: 1, QueueDepth: 1, AdmissionTimeout: time.Minute})
	release := HoldSlot(t, s)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	if err := s.Drain(ctx); err != context.DeadlineExceeded {
		t.Fatalf("Drain = %v, want DeadlineExceeded", err)
	}
	release()
	// A second drain waits for what the first gave up on.
	if err := s.Drain(context.Background()); err != nil {
		t.Fatalf("second Drain: %v", err)
	}
}

// TestSchedulerSubmitDrainRace: submits racing Drain resolve exactly once
// each, and every task that ran had finished when Drain returned.
func TestSchedulerSubmitDrainRace(t *testing.T) {
	for iter := 0; iter < 20; iter++ {
		s := NewScheduler(SchedConfig{Workers: 2, QueueDepth: 2, AdmissionTimeout: 5 * time.Millisecond})
		var resolved, running atomic.Int64
		const n = 40
		var wg sync.WaitGroup
		for i := 0; i < n; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				s.Submit(&Task{
					Run:  func() { running.Add(1); runtime.Gosched(); running.Add(-1); resolved.Add(1) },
					Shed: func(uint8) { resolved.Add(1) },
				})
			}()
		}
		s.Drain(context.Background())
		if r := running.Load(); r != 0 {
			t.Fatalf("iter %d: %d tasks still running after Drain", iter, r)
		}
		wg.Wait()
		if resolved.Load() != n {
			t.Fatalf("iter %d: resolved %d of %d", iter, resolved.Load(), n)
		}
		st := s.Stats()
		if st.Executed+st.Shed() != n || st.Admitted != st.Executed+st.ShedExpired {
			t.Fatalf("iter %d: stats do not add up: %+v", iter, st)
		}
	}
}
