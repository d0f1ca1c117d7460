package main

import (
	"bytes"
	"fmt"
	"os"
	"strconv"
	"strings"
	"syscall"
)

// clockTicks is USER_HZ, the unit of the CPU fields of /proc/<pid>/stat;
// it is 100 on every Linux ABI Go supports.
const clockTicks = 100

// childAttr makes the kernel kill the daemon if this process dies without
// running its deferred clean-up (a panic on another goroutine, SIGKILL).
func childAttr() *syscall.SysProcAttr {
	return &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
}

// selfCPUSeconds is this process's user+system CPU time so far.
func selfCPUSeconds() (float64, error) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, err
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime), nil
}

// procCPUSeconds is the user+system CPU time of process pid so far, from
// /proc/<pid>/stat (utime and stime, fields 14 and 15).
func procCPUSeconds(pid int) (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// The command name (field 2) may contain spaces; fields are counted
	// from the closing parenthesis.
	end := bytes.LastIndexByte(b, ')')
	fields := strings.Fields(string(b[end+1:]))
	if end < 0 || len(fields) < 13 {
		return 0, fmt.Errorf("unexpected /proc/%d/stat: %q", pid, b)
	}
	utime, err1 := strconv.ParseUint(fields[11], 10, 64)
	stime, err2 := strconv.ParseUint(fields[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("unexpected /proc/%d/stat: %q", pid, b)
	}
	return float64(utime+stime) / clockTicks, nil
}

// procPeakRSSMiB is the peak resident set size (VmHWM) of process pid.
func procPeakRSSMiB(pid int) (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("unexpected VmHWM line %q", line)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", pid)
}
