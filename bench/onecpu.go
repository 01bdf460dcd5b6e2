package main

import (
	"errors"
	"fmt"
	"math/bits"
	"os"
	"runtime"
	"strconv"
	"syscall"
	"unsafe"
)

// cpuMask is a kernel CPU affinity mask (1024 CPUs).
type cpuMask [16]uint64

func schedAffinity(trap uintptr, tid int, mask *cpuMask) error {
	_, _, errno := syscall.RawSyscall(trap, uintptr(tid), unsafe.Sizeof(*mask), uintptr(unsafe.Pointer(mask)))
	if errno != 0 {
		return errno
	}
	return nil
}

// pinToOneCPU restricts every thread of this process to the lowest CPU it is
// allowed on and sets GOMAXPROCS to 1. Threads and processes started later
// inherit the mask from the thread that starts them.
//
// mapd-launch calls it before it starts its mapd child. The workload is a
// two-process ping-pong over loopback with ~0.03 ms of server-side work per
// request. With client and daemon on the two vCPUs of the reference host,
// each request wakes a halted vCPU twice, and that — set by the hypervisor's
// host, not by this repository — was most of the latency: the same code
// measured 2 200 to 4 000 ops/s within half an hour. On one CPU a hand-over
// is a context switch, the CPU never halts inside a request, the workload
// runs at 4 800 to 5 900 ops/s, and a shift of the host that moved the
// two-CPU numbers by 30% moved these by 10% (README, "Why mapd-launch runs
// on one CPU"). The other workloads keep both CPUs: pinning did not steady
// coll-steady or job-launch, and mapd-cold and plan-sweep compute in
// parallel.
func pinToOneCPU() error {
	var allowed, one cpuMask
	if err := schedAffinity(syscall.SYS_SCHED_GETAFFINITY, 0, &allowed); err != nil {
		return fmt.Errorf("sched_getaffinity: %w", err)
	}
	for w, word := range allowed {
		if word != 0 {
			one[w] = 1 << bits.TrailingZeros64(word)
			break
		}
	}
	// Two passes: a thread the runtime starts during the first one may have
	// inherited the old mask.
	for pass := 0; pass < 2; pass++ {
		tasks, err := os.ReadDir("/proc/self/task")
		if err != nil {
			return err
		}
		for _, t := range tasks {
			tid, err := strconv.Atoi(t.Name())
			if err != nil {
				continue
			}
			err = schedAffinity(syscall.SYS_SCHED_SETAFFINITY, tid, &one)
			if err != nil && !errors.Is(err, syscall.ESRCH) { // ESRCH: the thread has exited
				return fmt.Errorf("sched_setaffinity(%d): %w", tid, err)
			}
		}
	}
	runtime.GOMAXPROCS(1)
	return nil
}
