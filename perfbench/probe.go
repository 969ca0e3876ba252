package main

import (
	"bufio"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// probe is an outside-in snapshot of the process: CPU time from
// getrusage and the Go runtime's allocation and GC counters.
type probe struct {
	at      time.Time
	cpu     time.Duration
	mallocs uint64
	alloc   uint64
	numGC   uint32
	pauseNS uint64
}

func takeProbe() probe {
	var ru syscall.Rusage
	// RUSAGE_SELF cannot fail for the calling process.
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return probe{
		at:      time.Now(),
		cpu:     time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		mallocs: ms.Mallocs,
		alloc:   ms.TotalAlloc,
		numGC:   ms.NumGC,
		pauseNS: ms.PauseTotalNs,
	}
}

// usage is the difference between two probes around a timed phase.
type usage struct {
	wall, cpu       time.Duration
	mallocs, allocB uint64
	gcCycles        uint32
	gcPause         time.Duration
}

func (p probe) since(q probe) usage {
	return usage{
		wall:     p.at.Sub(q.at),
		cpu:      p.cpu - q.cpu,
		mallocs:  p.mallocs - q.mallocs,
		allocB:   p.alloc - q.alloc,
		gcCycles: p.numGC - q.numGC,
		gcPause:  time.Duration(p.pauseNS - q.pauseNS),
	}
}

// peakRSSMB reads the process's peak resident set size (VmHWM) in MiB.
func peakRSSMB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) == 3 && fields[0] == "VmHWM:" && fields[2] == "kB" {
			kb, err := strconv.ParseFloat(fields[1], 64)
			if err != nil {
				return 0, fmt.Errorf("VmHWM: %w", err)
			}
			return kb / 1024, nil
		}
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, fmt.Errorf("no VmHWM line in /proc/self/status")
}
