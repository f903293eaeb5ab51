// Package poolreuse exercises the batch-pool ownership analyzer with local
// stand-ins for exec.Batch/GetBatch/PutBatch (recognized by name and
// shape, so the fixture needs no import of the real executor).
package poolreuse

type Vec struct{ I64 []int64 }

type Batch struct {
	Cols []*Vec
	Sel  []int
}

func GetBatch() *Batch  { return &Batch{} }
func PutBatch(b *Batch) { b.Cols = b.Cols[:0] }

type source struct{ n int }

func (s *source) NextBatch() (*Batch, error) {
	b := GetBatch()
	if s.n == 0 {
		PutBatch(b)
		return nil, nil
	}
	return b, nil
}

// read borrows its argument (no put, no store): calls to it are plain uses.
func read(b *Batch) int { return len(b.Cols) }

// recycle puts its argument: calls to it count as puts at the call site.
func recycle(b *Batch) { PutBatch(b) }

// useAfterPut touches a batch it already recycled.
func useAfterPut() int {
	b := GetBatch()
	PutBatch(b)
	return read(b) // want "use of batch b after PutBatch"
}

// useAfterPutOnSomePath only recycles on one branch; the later use is
// poisoned on that path.
func useAfterPutOnSomePath(cond bool) *Batch {
	b := GetBatch()
	if cond {
		PutBatch(b)
	}
	return b // want "use of batch b after PutBatch"
}

// doublePut recycles twice: the second put poisons a batch another pipeline
// may already own.
func doublePut() {
	b := GetBatch()
	PutBatch(b)
	PutBatch(b) // want "double PutBatch"
}

// doublePutViaHelper recycles once directly and once through a callee whose
// summary says it puts its parameter.
func doublePutViaHelper() {
	b := GetBatch()
	recycle(b)
	PutBatch(b) // want "double PutBatch"
}

// leakOnEarlyReturn fails to recycle on the error path.
func leakOnEarlyReturn(fail bool) error { // comment keeps the acquire on the next line
	b := GetBatch() // want "not recycled on every path"
	if fail {
		return errFailed
	}
	PutBatch(b)
	return nil
}

// headerAlias keeps a Sel alias alive past the recycle; the pool is
// rewriting that slice under the reader.
func headerAlias() []int {
	b := GetBatch()
	sel := b.Sel
	PutBatch(b)
	return sel // want "aliases the Cols/Sel header"
}

// vectorAlias keeps one column vector past the recycle. A batch that was
// transposed or gathered owns its vectors and returns them to the pool with
// the header, so a vector dies with its batch whether or not this one only
// viewed a segment.
func vectorAlias() int64 {
	b := GetBatch()
	v := b.Cols[0]
	PutBatch(b)
	return v.I64[0] // want "or a vector of batch b"
}

// vectorUsedBeforePut reads the vector while the batch is still owned.
func vectorUsedBeforePut() int64 {
	b := GetBatch()
	v := b.Cols[0]
	x := v.I64[0]
	PutBatch(b)
	return x
}

var errFailed = errorString("failed")

type errorString string

func (e errorString) Error() string { return string(e) }
