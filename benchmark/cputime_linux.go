package main

import (
	"runtime"
	"syscall"
	"time"
	"unsafe"
)

// threadCPU returns the CPU time the calling OS thread has consumed. The
// in-process workloads time their maintenance loop on this clock (with the
// goroutine locked to its thread): the reference box is a shared VM whose
// hypervisor takes the CPU away for a quarter of the wall time, in bursts that
// last from milliseconds to minutes, and the thread clock does not count them.
// On an unshared box the loop is CPU-bound and the two clocks agree.
func threadCPU() time.Duration {
	const clockThreadCPUTimeID = 3
	var ts syscall.Timespec
	syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTimeID, uintptr(unsafe.Pointer(&ts)), 0)
	return time.Duration(ts.Nano())
}

// processCPU returns the CPU time of the whole process, all threads.
func processCPU() time.Duration {
	var ru syscall.Rusage
	syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// hostCalibration times a fixed ALU loop and a dependent walk over 64 MiB, in
// ns per step on the thread's CPU clock: what a result from another machine is
// normalised by. No layer of the program moves them.
func hostCalibration() (aluNs, memNs float64) {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	const steps = 10_000_000
	start := threadCPU()
	x := uint64(88172645463325252)
	for i := 0; i < steps; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
	}
	aluNs = float64(threadCPU()-start) / steps
	buf := make([]uint32, 64<<20/4)
	for i := range buf { // one cycle through every slot, 64 MiB of strides
		buf[i] = uint32((uint64(i) + 40_503*16) % uint64(len(buf)))
	}
	const hops = 1_000_000
	start = threadCPU()
	j := uint32(x % uint64(len(buf)))
	for i := 0; i < hops; i++ {
		j = buf[j]
	}
	memNs = float64(threadCPU()-start) / hops
	calibSink = uint64(j) + x
	return aluNs, memNs
}

var calibSink uint64
