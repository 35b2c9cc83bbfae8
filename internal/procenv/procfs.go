// Package procenv implements core.HostEnvironment and core.LaneSignals
// for real Linux processes: per-process resource usage is sampled from
// procfs (the same numbers cgroup accounting exposes), QoS violations
// are read from a report file the sensitive application writes, and
// throttling is actuated with the paper's SIGSTOP/SIGCONT via
// throttle.ProcessActuator.
//
// The procfs root is configurable so tests run against a fixture tree;
// production uses "/proc".
package procenv

import (
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
)

// procStat is the subset of /proc/<pid>/stat the collector needs.
type procStat struct {
	// State is the process state letter (R, S, D, T, Z, ...). "T" is a
	// stopped (SIGSTOPped) process.
	State byte
	// UTime and STime are user/system CPU time in clock ticks.
	UTime, STime uint64
}

// readProcStat parses /proc/<pid>/stat. The comm field may contain spaces
// and parentheses, so parsing anchors on the *last* ')'.
func readProcStat(root string, pid int) (procStat, error) {
	data, err := os.ReadFile(filepath.Join(root, strconv.Itoa(pid), "stat"))
	if err != nil {
		return procStat{}, fmt.Errorf("procenv: read stat for pid %d: %w", pid, err)
	}
	s := string(data)
	close := strings.LastIndexByte(s, ')')
	if close < 0 || close+2 >= len(s) {
		return procStat{}, fmt.Errorf("procenv: malformed stat for pid %d", pid)
	}
	fields := strings.Fields(s[close+2:])
	// After the comm field: fields[0]=state, ... utime=fields[11],
	// stime=fields[12] (stat fields 14 and 15, 1-based).
	if len(fields) < 13 {
		return procStat{}, fmt.Errorf("procenv: truncated stat for pid %d", pid)
	}
	ut, err1 := strconv.ParseUint(fields[11], 10, 64)
	st, err2 := strconv.ParseUint(fields[12], 10, 64)
	if err1 != nil || err2 != nil {
		return procStat{}, fmt.Errorf("procenv: bad cpu fields for pid %d", pid)
	}
	return procStat{State: fields[0][0], UTime: ut, STime: st}, nil
}

// readVmRSS parses the resident set size (kB) from /proc/<pid>/status.
func readVmRSS(root string, pid int) (float64, error) {
	data, err := os.ReadFile(filepath.Join(root, strconv.Itoa(pid), "status"))
	if err != nil {
		return 0, fmt.Errorf("procenv: read status for pid %d: %w", pid, err)
	}
	for _, line := range strings.Split(string(data), "\n") {
		if !strings.HasPrefix(line, "VmRSS:") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 2 {
			break
		}
		kb, err := strconv.ParseFloat(fields[1], 64)
		if err != nil {
			return 0, fmt.Errorf("procenv: bad VmRSS for pid %d: %w", pid, err)
		}
		return kb / 1024, nil // MB
	}
	// Kernel threads have no VmRSS line; treat as zero resident memory.
	return 0, nil
}

// procIO is the subset of /proc/<pid>/io the collector needs.
type procIO struct {
	ReadBytes, WriteBytes uint64
}

// readProcIO parses /proc/<pid>/io. The file may be unreadable without
// privileges; callers treat an error as zero I/O rather than failing the
// whole sample.
func readProcIO(root string, pid int) (procIO, error) {
	data, err := os.ReadFile(filepath.Join(root, strconv.Itoa(pid), "io"))
	if err != nil {
		return procIO{}, err
	}
	var out procIO
	for _, line := range strings.Split(string(data), "\n") {
		fields := strings.Fields(line)
		if len(fields) != 2 {
			continue
		}
		v, err := strconv.ParseUint(fields[1], 10, 64)
		if err != nil {
			continue
		}
		switch fields[0] {
		case "read_bytes:":
			out.ReadBytes = v
		case "write_bytes:":
			out.WriteBytes = v
		}
	}
	return out, nil
}

// pidExists reports whether the pid still has a procfs entry.
func pidExists(root string, pid int) bool {
	_, err := os.Stat(filepath.Join(root, strconv.Itoa(pid)))
	return err == nil
}
