package procenv

import (
	"fmt"
	"time"

	"repro/internal/metrics"
)

// Group is a set of processes monitored as one logical VM (one container's
// worth of processes, or §5's aggregated batch group).
type Group struct {
	// Name becomes the metrics.Sample VM name.
	Name string
	// PIDs are the member processes.
	PIDs []int
}

// Collector samples per-group resource usage from procfs, converting
// cumulative counters into per-second rates between successive Sample
// calls.
type Collector struct {
	root      string
	clockTick float64 // jiffies per second
	groups    []Group

	// prev holds the previous cumulative counters per pid.
	prevCPU  map[int]uint64 // utime+stime jiffies
	prevIO   map[int]procIO
	prevTime time.Time
	// now allows tests to control the clock.
	now func() time.Time
}

// NewCollector returns a collector over the given procfs root ("/proc" in
// production) and groups. clockTick is the kernel's USER_HZ (100 on
// virtually every Linux build).
func NewCollector(root string, clockTick float64, groups []Group) (*Collector, error) {
	if root == "" {
		return nil, fmt.Errorf("procenv: empty procfs root")
	}
	if clockTick <= 0 {
		return nil, fmt.Errorf("procenv: clockTick must be positive, got %v", clockTick)
	}
	seen := map[string]bool{}
	for _, g := range groups {
		if g.Name == "" {
			return nil, fmt.Errorf("procenv: group with empty name")
		}
		if seen[g.Name] {
			return nil, fmt.Errorf("procenv: duplicate group %q", g.Name)
		}
		seen[g.Name] = true
	}
	return &Collector{
		root:      root,
		clockTick: clockTick,
		groups:    append([]Group(nil), groups...),
		prevCPU:   make(map[int]uint64),
		prevIO:    make(map[int]procIO),
		now:       time.Now,
	}, nil
}

// Sample reads the current usage of every group. The first call primes the
// counters and reports zero rates; subsequent calls report rates over the
// elapsed wall time. Vanished processes contribute nothing (their final
// partial interval is dropped, matching what cgroup deletion does).
func (c *Collector) Sample() []metrics.Sample {
	now := c.now()
	elapsed := now.Sub(c.prevTime).Seconds()
	first := c.prevTime.IsZero()
	c.prevTime = now

	out := make([]metrics.Sample, 0, len(c.groups))
	for _, g := range c.groups {
		var cpuPercent, memMB, ioMBps float64
		for _, pid := range g.PIDs {
			st, err := readProcStat(c.root, pid)
			if err != nil {
				delete(c.prevCPU, pid)
				delete(c.prevIO, pid)
				continue
			}
			total := st.UTime + st.STime
			if prev, ok := c.prevCPU[pid]; ok && !first && elapsed > 0 && total >= prev {
				cpuPercent += float64(total-prev) / c.clockTick / elapsed * 100
			}
			c.prevCPU[pid] = total

			if rss, err := readVmRSS(c.root, pid); err == nil {
				memMB += rss
			}

			if io, err := readProcIO(c.root, pid); err == nil {
				if prev, ok := c.prevIO[pid]; ok && !first && elapsed > 0 &&
					io.ReadBytes >= prev.ReadBytes && io.WriteBytes >= prev.WriteBytes {
					bytes := float64(io.ReadBytes - prev.ReadBytes + io.WriteBytes - prev.WriteBytes)
					ioMBps += bytes / (1 << 20) / elapsed
				}
				c.prevIO[pid] = io
			}
		}
		out = append(out, metrics.Sample{VM: g.Name, Values: map[metrics.Metric]float64{
			metrics.MetricCPU:    cpuPercent,
			metrics.MetricMemory: memMB,
			metrics.MetricIO:     ioMBps,
			// Per-process network accounting is not available from plain
			// procfs; a production deployment would wire cgroup net_cls or
			// eBPF counters here.
			metrics.MetricNetwork: 0,
		}})
	}
	return out
}

// GroupNames returns the configured group names in order.
func (c *Collector) GroupNames() []string {
	out := make([]string, len(c.groups))
	for i, g := range c.groups {
		out[i] = g.Name
	}
	return out
}

// GroupRunning reports whether any process of the named group exists and
// is not stopped (state T) — the signal the environment uses for
// execution-mode detection.
func (c *Collector) GroupRunning(name string) bool {
	for _, g := range c.groups {
		if g.Name != name {
			continue
		}
		for _, pid := range g.PIDs {
			st, err := readProcStat(c.root, pid)
			if err != nil {
				continue
			}
			if st.State != 'T' && st.State != 'Z' && st.State != 'X' {
				return true
			}
		}
	}
	return false
}

// GroupActive reports whether any process of the named group still exists
// (running, sleeping or stopped — i.e. it has remaining work).
func (c *Collector) GroupActive(name string) bool {
	for _, g := range c.groups {
		if g.Name != name {
			continue
		}
		for _, pid := range g.PIDs {
			if !pidExists(c.root, pid) {
				continue
			}
			if st, err := readProcStat(c.root, pid); err == nil &&
				(st.State == 'Z' || st.State == 'X') {
				continue
			}
			return true
		}
	}
	return false
}
