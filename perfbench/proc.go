package main

import (
	"runtime"
	"runtime/metrics"
	"syscall"
	"time"
	"unsafe"
)

// procSnap is a point-in-time reading of the Go runtime and the process's
// CPU clock; the difference of two snapshots describes the work between
// them.
type procSnap struct {
	wall       time.Time
	cpu        time.Duration // user + system time of the process
	allocs     uint64
	allocBytes uint64
	gcCPU      float64 // runtime estimate, CPU seconds
	totalCPU   float64 // runtime estimate, CPU seconds
}

var procSamples = []metrics.Sample{
	{Name: "/gc/heap/allocs:objects"},
	{Name: "/gc/heap/allocs:bytes"},
	{Name: "/cpu/classes/gc/total:cpu-seconds"},
	{Name: "/cpu/classes/total:cpu-seconds"},
}

func takeSnap() procSnap {
	s := procSnap{wall: time.Now(), cpu: cpuTime()}
	metrics.Read(procSamples)
	s.allocs = procSamples[0].Value.Uint64()
	s.allocBytes = procSamples[1].Value.Uint64()
	s.gcCPU = procSamples[2].Value.Float64()
	s.totalCPU = procSamples[3].Value.Float64()
	return s
}

// threadCPUTime is the CPU time of the calling OS thread
// (CLOCK_THREAD_CPUTIME_ID); the caller must be locked to its thread.
func threadCPUTime() time.Duration {
	const clockThreadCPUTimeID = 3
	var ts syscall.Timespec
	syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTimeID, uintptr(unsafe.Pointer(&ts)), 0)
	return time.Duration(ts.Nano())
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB is the process's peak resident set in MB (ru_maxrss is in KB
// on Linux).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// procLayer turns the work between two snapshots into the proc.* per-layer
// metrics for a phase that completed queries queries.
func procLayer(a, b procSnap, queries float64, out layerMetrics) {
	wall := b.wall.Sub(a.wall).Seconds()
	out["proc.cpu_util"] = per((b.cpu - a.cpu).Seconds(), wall*float64(runtime.NumCPU()))
	out["proc.allocs_per_query"] = per(float64(b.allocs-a.allocs), queries)
	out["proc.alloc_bytes_per_query"] = per(float64(b.allocBytes-a.allocBytes), queries)
	out["proc.gc_cpu_share"] = per(b.gcCPU-a.gcCPU, b.totalCPU-a.totalCPU)
}
