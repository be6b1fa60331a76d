package main

import (
	"syscall"
	"time"
	"unsafe"
)

// The benchmark's throughput and set-up metrics are taken in CPU time, not
// wall time: on a shared machine, co-tenants and the hypervisor stretch
// wall time by up to a quarter from one minute to the next, while the CPU
// time the program itself spends stays within a few percent. Wall-clock
// figures are printed beside them.

// processCPU is the process's user plus system CPU time so far.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// clockThreadCPUTimeID is Linux's CLOCK_THREAD_CPUTIME_ID. Unlike
// getrusage(RUSAGE_THREAD), whose thread time advances only at scheduler
// ticks, this clock includes the running slice, so it can time a
// millisecond-long monitor round.
const clockThreadCPUTimeID = 3

// threadCPU is the calling OS thread's CPU time so far; the caller must
// hold runtime.LockOSThread for it to mean anything.
func threadCPU() time.Duration {
	var ts syscall.Timespec
	if _, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTimeID,
		uintptr(unsafe.Pointer(&ts)), 0); errno != 0 {
		return 0
	}
	return time.Duration(ts.Nano())
}
