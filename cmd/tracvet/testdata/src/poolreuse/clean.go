package poolreuse

// The clean shapes mirror the real executor: consume-and-recycle, recycle
// on every exit, forward ownership, defer, and nilable NextBatch loops.

// consumeAndRecycle is the canonical borrow-then-put.
func consumeAndRecycle() int {
	b := GetBatch()
	n := read(b)
	PutBatch(b)
	return n
}

// recycleEveryPath puts on the error path and forwards on success — the
// rowSource.NextBatch shape.
func recycleEveryPath(fail bool) (*Batch, error) {
	b := GetBatch()
	if fail {
		PutBatch(b)
		return nil, errFailed
	}
	return b, nil
}

// deferredRecycle uses defer; the batch may be used until the function
// exits.
func deferredRecycle() int {
	b := GetBatch()
	defer PutBatch(b)
	return read(b)
}

// forwarded hands ownership to a channel: the receiver recycles, not us.
func forwarded(ch chan *Batch) {
	b := GetBatch()
	ch <- b
}

// nextLoop drains a source: NextBatch acquisitions may be nil on
// exhaustion, so they are exempt from the leak check, and re-acquiring the
// same variable each iteration resets its state.
func nextLoop(s *source) int {
	n := 0
	for {
		b, err := s.NextBatch()
		if err != nil {
			return n
		}
		if b == nil {
			break
		}
		n += read(b)
		PutBatch(b)
	}
	return n
}

// escapeUnknown passes the batch to a dynamic callee: ownership is assumed
// transferred, so the missing put is not a leak (and later use is not
// flagged).
func escapeUnknown(k func(*Batch)) {
	b := GetBatch()
	k(b)
}

// returnBeforeAcquire is the scan shape: a unit answered without rows
// returns before GetBatch, and the error path after it recycles.
func returnBeforeAcquire(skip bool, err error) (*Batch, error) {
	if skip {
		return nil, nil
	}
	b := GetBatch()
	if err != nil {
		PutBatch(b)
		return nil, err
	}
	return b, nil
}

// putAfterMaybeEscape hands the batch to a dynamic callee on one path only,
// then recycles it: no path still owns it at the return.
func putAfterMaybeEscape(k func(*Batch) error) error {
	b := GetBatch()
	if k != nil {
		if err := k(b); err != nil {
			return err
		}
	}
	PutBatch(b)
	return nil
}
