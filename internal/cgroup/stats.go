package cgroup

import (
	"fmt"
	"strconv"
	"strings"
	"time"

	"repro/internal/metrics"
)

// Group is one monitored cgroup, named as it should appear in the
// measurement schema (the metrics.Sample VM name).
type Group struct {
	// Name becomes the sample's VM name.
	Name string
	// Path is the cgroup directory relative to the hierarchy root.
	Path string
}

// Collector samples per-cgroup resource usage from cgroup v2 accounting
// files — the production replacement for per-PID procfs aggregation:
// cpu.stat covers every process the cgroup ever hosted (no missed
// short-lived children), memory.current is the kernel's own charge
// (not an RSS sum that double-counts shared pages), and io.stat includes
// writeback attributed by the block layer.
type Collector struct {
	fs     Cgroupfs
	groups []Group

	prevCPU  map[string]uint64 // usage_usec per cgroup path
	prevIO   map[string]ioCounters
	prevTime time.Time
	// now allows tests to control the clock.
	now func() time.Time
}

// ioCounters is the subset of io.stat the collector tracks.
type ioCounters struct {
	ReadBytes, WriteBytes uint64
}

// NewCollector returns a collector over the given cgroups.
func NewCollector(cfs Cgroupfs, groups []Group) (*Collector, error) {
	if cfs == nil {
		return nil, fmt.Errorf("cgroup: nil Cgroupfs")
	}
	seen := map[string]bool{}
	for _, g := range groups {
		if g.Name == "" {
			return nil, fmt.Errorf("cgroup: group with empty name")
		}
		if g.Path == "" {
			return nil, fmt.Errorf("cgroup: group %q with empty path", g.Name)
		}
		if seen[g.Name] {
			return nil, fmt.Errorf("cgroup: duplicate group %q", g.Name)
		}
		seen[g.Name] = true
	}
	return &Collector{
		fs:      cfs,
		groups:  append([]Group(nil), groups...),
		prevCPU: make(map[string]uint64),
		prevIO:  make(map[string]ioCounters),
		now:     time.Now,
	}, nil
}

// Sample reads the current usage of every group. The first call primes
// the counters and reports zero rates; subsequent calls report rates over
// the elapsed wall time. A vanished cgroup contributes zeros (its final
// partial interval is dropped — exactly what cgroup deletion does) and
// its counters are pruned so a recreated cgroup re-primes cleanly.
func (c *Collector) Sample() []metrics.Sample {
	now := c.now()
	elapsed := now.Sub(c.prevTime).Seconds()
	first := c.prevTime.IsZero()
	c.prevTime = now

	out := make([]metrics.Sample, 0, len(c.groups))
	for _, g := range c.groups {
		var cpuPercent, memMB, ioMBps float64

		if usage, err := c.readCPUUsage(g.Path); err != nil {
			delete(c.prevCPU, g.Path)
			delete(c.prevIO, g.Path)
		} else {
			if prev, ok := c.prevCPU[g.Path]; ok && !first && elapsed > 0 && usage >= prev {
				cpuPercent = float64(usage-prev) / 1e6 / elapsed * 100
			}
			c.prevCPU[g.Path] = usage

			if bytes, err := c.readSingleValue(g.Path, "memory.current"); err == nil {
				memMB = float64(bytes) / (1 << 20)
			}

			if io, err := c.readIOStat(g.Path); err == nil {
				if prev, ok := c.prevIO[g.Path]; ok && !first && elapsed > 0 &&
					io.ReadBytes >= prev.ReadBytes && io.WriteBytes >= prev.WriteBytes {
					bytes := float64(io.ReadBytes - prev.ReadBytes + io.WriteBytes - prev.WriteBytes)
					ioMBps = bytes / (1 << 20) / elapsed
				}
				c.prevIO[g.Path] = io
			}
		}

		out = append(out, metrics.Sample{VM: g.Name, Values: map[metrics.Metric]float64{
			metrics.MetricCPU:    cpuPercent,
			metrics.MetricMemory: memMB,
			metrics.MetricIO:     ioMBps,
			// cgroup v2 has no per-cgroup network accounting in the core
			// controllers; wiring net_cls/eBPF counters is future work.
			metrics.MetricNetwork: 0,
		}})
	}
	return out
}

// GroupRunning reports whether the named cgroup hosts processes and is
// not frozen — the execution-mode signal (a frozen cgroup is the
// SIGSTOPped analogue of procfs state 'T').
func (c *Collector) GroupRunning(name string) bool {
	g, ok := c.lookup(name)
	if !ok || !c.populated(g.Path) {
		return false
	}
	data, err := c.fs.ReadFile(controlFile(g.Path, "cgroup.freeze"))
	if err != nil {
		return false
	}
	return strings.TrimSpace(string(data)) != "1"
}

// GroupActive reports whether the named cgroup still hosts processes
// (running or frozen — i.e. it has remaining work).
func (c *Collector) GroupActive(name string) bool {
	g, ok := c.lookup(name)
	return ok && c.populated(g.Path)
}

// AddGroup starts monitoring one more cgroup — the collector half of a
// live lane add. The same validation as NewCollector applies; a
// duplicate name (or a second name over the same path) is rejected so a
// reload cannot silently double-count a cgroup. The new group's first
// Sample primes its counters and reports zero rates, exactly like a
// fresh collector's first call.
func (c *Collector) AddGroup(g Group) error {
	if g.Name == "" {
		return fmt.Errorf("cgroup: group with empty name")
	}
	if g.Path == "" {
		return fmt.Errorf("cgroup: group %q with empty path", g.Name)
	}
	for _, cur := range c.groups {
		if cur.Name == g.Name {
			return fmt.Errorf("cgroup: duplicate group %q", g.Name)
		}
		if cur.Path == g.Path {
			return fmt.Errorf("cgroup: path %q already monitored as group %q", g.Path, cur.Name)
		}
	}
	c.groups = append(c.groups, g)
	return nil
}

// RemoveGroup stops monitoring the named cgroup and prunes its rate
// counters, so a later re-add re-primes cleanly instead of reporting a
// rate over the gap. Removing an unknown group is a no-op: lane removal
// must be idempotent.
func (c *Collector) RemoveGroup(name string) {
	for i, g := range c.groups {
		if g.Name == name {
			c.groups = append(c.groups[:i], c.groups[i+1:]...)
			delete(c.prevCPU, g.Path)
			delete(c.prevIO, g.Path)
			return
		}
	}
}

// GroupNames returns the configured group names in order.
func (c *Collector) GroupNames() []string {
	out := make([]string, len(c.groups))
	for i, g := range c.groups {
		out[i] = g.Name
	}
	return out
}

func (c *Collector) lookup(name string) (Group, bool) {
	for _, g := range c.groups {
		if g.Name == name {
			return g, true
		}
	}
	return Group{}, false
}

// populated reports whether the cgroup exists and has member processes.
func (c *Collector) populated(path string) bool {
	data, err := c.fs.ReadFile(controlFile(path, "cgroup.procs"))
	if err != nil {
		return false
	}
	return len(strings.Fields(string(data))) > 0
}

// readCPUUsage parses usage_usec from cpu.stat.
func (c *Collector) readCPUUsage(path string) (uint64, error) {
	data, err := c.fs.ReadFile(controlFile(path, "cpu.stat"))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		fields := strings.Fields(line)
		if len(fields) == 2 && fields[0] == "usage_usec" {
			return strconv.ParseUint(fields[1], 10, 64)
		}
	}
	return 0, fmt.Errorf("cgroup: no usage_usec in %s/cpu.stat", path)
}

// readSingleValue parses a single-integer control file (memory.current).
func (c *Collector) readSingleValue(path, file string) (uint64, error) {
	data, err := c.fs.ReadFile(controlFile(path, file))
	if err != nil {
		return 0, err
	}
	return strconv.ParseUint(strings.TrimSpace(string(data)), 10, 64)
}

// readIOStat sums rbytes and wbytes across all devices in io.stat. Lines
// look like "8:16 rbytes=1459200 wbytes=314773504 rios=192 ...".
func (c *Collector) readIOStat(path string) (ioCounters, error) {
	data, err := c.fs.ReadFile(controlFile(path, "io.stat"))
	if err != nil {
		return ioCounters{}, err
	}
	var out ioCounters
	for _, line := range strings.Split(string(data), "\n") {
		for _, field := range strings.Fields(line) {
			key, value, ok := strings.Cut(field, "=")
			if !ok {
				continue
			}
			v, err := strconv.ParseUint(value, 10, 64)
			if err != nil {
				continue
			}
			switch key {
			case "rbytes":
				out.ReadBytes += v
			case "wbytes":
				out.WriteBytes += v
			}
		}
	}
	return out, nil
}
