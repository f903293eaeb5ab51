package main

import (
	"math"
	"time"
)

// The calibration kernels: fixed pieces of work, on the calling goroutine,
// that none of the program under test's code takes part in. Each leans on
// another resource the host shares out: the core's arithmetic units, a
// stream through the second-level cache, a stream through memory, and a
// chain of dependent loads. A workload's sensitivity to what else the host
// is doing lies between theirs; across ten runs each normalising by their
// geometric mean halved the spread of every timed metric on every workload,
// where no single kernel did.
const numKernels = 4

// kernelReferenceMS is each kernel's lower-quartile time on the 2-core
// reference host.
var kernelReferenceMS = [numKernels]float64{0.61, 0.61, 1.25, 1.35}

var (
	kernelSmall = make([]uint64, 1<<15) // 256 KiB
	kernelMid   = make([]uint64, 1<<18) // 2 MiB
	kernelLarge = make([]uint64, 1<<19) // 4 MiB
	kernelChain = randomCycle(1 << 20)  // 4 MiB of uint32 indices
	kernelSink  uint64
)

// randomCycle returns a permutation of 0..n-1 that is one cycle, so that
// following it visits every slot in an order no prefetcher guesses.
func randomCycle(n int) []uint32 {
	order := make([]uint32, n)
	for i := range order {
		order[i] = uint32(i)
	}
	x := uint64(88172645463325252)
	for i := n - 1; i > 0; i-- {
		x = x*6364136223846793005 + 1442695040888963407
		j := int((x >> 33) % uint64(i+1))
		order[i], order[j] = order[j], order[i]
	}
	next := make([]uint32, n)
	for i, at := range order {
		next[at] = order[(i+1)%n]
	}
	return next
}

func stream(buf []uint64) {
	var sum uint64
	for i := range buf {
		buf[i] += sum
		sum += buf[i] >> 7
	}
	kernelSink += sum
}

var kernels = [numKernels]func(){
	func() {
		var sum uint64
		for pass := 0; pass < 16; pass++ {
			for i := range kernelSmall {
				kernelSmall[i] = kernelSmall[i]*6364136223846793005 + 1442695040888963407
				sum += kernelSmall[i] >> 33
			}
		}
		kernelSink += sum
	},
	func() { stream(kernelMid) },
	func() { stream(kernelLarge) },
	func() {
		at := uint32(kernelSink) % uint32(len(kernelChain))
		for i := 0; i < 8000; i++ {
			at = kernelChain[at]
		}
		kernelSink += uint64(at)
	},
}

// calibrate takes one sample of every calibration kernel.
func (l *legs) calibrate() {
	for k, kernel := range kernels {
		t0 := time.Now()
		kernel()
		l.calibMS[k] = append(l.calibMS[k], ms(time.Since(t0)))
	}
}

// calibrationP25 is the lower quartile of each kernel's samples: whatever
// else the host is doing only ever adds to a sample.
func (l *legs) calibrationP25() [numKernels]float64 {
	var out [numKernels]float64
	for k := range out {
		out[k] = quantile(l.calibMS[k], 0.25)
	}
	return out
}

// hostSlowdown is how much slower than the reference host the calibration
// kernels say this one was: the geometric mean of their ratios.
func hostSlowdown(p25 [numKernels]float64) float64 {
	logSum := 0.0
	for k, v := range p25 {
		if v <= 0 {
			return 1
		}
		logSum += math.Log(v / kernelReferenceMS[k])
	}
	return math.Exp(logSum / numKernels)
}
