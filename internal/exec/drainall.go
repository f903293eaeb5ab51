package exec

// DrainAll runs every operator to completion concurrently — the scatter
// fan-in of a cross-shard plan — and returns each one's output as one batch
// the caller owns (DrainBatch; nil when it has none), in operator order.
// Unlike Exchange, which interleaves its children's batches
// nondeterministically, DrainAll keeps each operator's output apart, so a
// gather that merges them in index order stays deterministic while the
// drains themselves still overlap.
//
// Operators must be independent (each is Opened, drained and Closed on its
// own goroutine). The first error wins, and every batch is then recycled;
// the remaining drains still run to completion so no operator is left
// un-Closed.
func DrainAll(ops []BatchOperator) ([]*Batch, error) {
	out := make([]*Batch, len(ops))
	if err := fanOut(len(ops), func(i int) (err error) {
		out[i], err = DrainBatch(ops[i])
		return err
	}); err != nil {
		for _, b := range out {
			PutBatch(b)
		}
		return nil, err
	}
	return out, nil
}
