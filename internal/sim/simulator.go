package sim

import (
	"fmt"
	"sort"

	"repro/internal/metrics"
)

// Simulator steps a host and its containers through discrete time.
type Simulator struct {
	cfg        HostConfig
	containers map[string]*Container
	order      []string // deterministic iteration order (insertion order)
	tick       int

	// utilization accounting
	totalGrantedCPU float64 // across all containers and ticks
	capacityTicks   float64 // CPU capacity × ticks elapsed
}

// NewSimulator returns a simulator for the given host.
func NewSimulator(cfg HostConfig) (*Simulator, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	return &Simulator{
		cfg:        cfg,
		containers: make(map[string]*Container),
	}, nil
}

// Config returns the host configuration.
func (s *Simulator) Config() HostConfig { return s.cfg }

// Tick returns the number of completed ticks.
func (s *Simulator) Tick() int { return s.tick }

// AddContainer creates a container hosting app. IDs must be unique and
// non-empty.
func (s *Simulator) AddContainer(id string, app App) (*Container, error) {
	if id == "" {
		return nil, fmt.Errorf("sim: empty container ID")
	}
	if app == nil {
		return nil, fmt.Errorf("sim: nil app for container %q", id)
	}
	if _, dup := s.containers[id]; dup {
		return nil, fmt.Errorf("sim: duplicate container ID %q", id)
	}
	c := &Container{id: id, app: app, state: StateRunning, cpuQuota: 1}
	s.containers[id] = c
	s.order = append(s.order, id)
	return c, nil
}

// Container returns the container with the given ID.
func (s *Simulator) Container(id string) (*Container, error) {
	c, ok := s.containers[id]
	if !ok {
		return nil, fmt.Errorf("sim: unknown container %q", id)
	}
	return c, nil
}

// Containers returns all containers in insertion order.
func (s *Simulator) Containers() []*Container {
	out := make([]*Container, 0, len(s.order))
	for _, id := range s.order {
		out = append(out, s.containers[id])
	}
	return out
}

// Detach removes an active container from the host and returns it, with
// its application and accumulated accounting intact — the source side of a
// migration. The container stops participating in allocation immediately;
// its granted-CPU history stays in the host's utilization totals (the work
// really did run here). Finished or stopped containers cannot be detached.
func (s *Simulator) Detach(id string) (*Container, error) {
	c, err := s.Container(id)
	if err != nil {
		return nil, err
	}
	if !c.Active() {
		return nil, fmt.Errorf("sim: container %q is %s, not detachable", id, c.state)
	}
	delete(s.containers, id)
	for i, oid := range s.order {
		if oid == id {
			s.order = append(s.order[:i], s.order[i+1:]...)
			break
		}
	}
	// The detached container leaves in a clean running state: a frozen
	// source container would otherwise arrive frozen on a host whose
	// runtime never froze it (and would therefore never thaw it).
	c.state = StateRunning
	c.cpuQuota = 1
	c.lastDemand = Demand{}
	c.lastGrant = Grant{}
	return c, nil
}

// Attach re-hosts a previously detached container under the given ID —
// the destination side of a migration. The application keeps its progress;
// the usage totals keep accumulating on the same Container.
func (s *Simulator) Attach(id string, c *Container) error {
	if id == "" {
		return fmt.Errorf("sim: empty container ID")
	}
	if c == nil {
		return fmt.Errorf("sim: nil container")
	}
	if _, dup := s.containers[id]; dup {
		return fmt.Errorf("sim: duplicate container ID %q", id)
	}
	c.id = id
	s.containers[id] = c
	s.order = append(s.order, id)
	return nil
}

// Freeze pauses a running container (cgroup freezer / SIGSTOP semantics).
// Freezing a non-running container is a no-op, matching the idempotent
// behaviour of the real mechanisms.
func (s *Simulator) Freeze(id string) error {
	c, err := s.Container(id)
	if err != nil {
		return err
	}
	if c.state == StateRunning {
		c.state = StateFrozen
	}
	return nil
}

// Thaw resumes a frozen container.
func (s *Simulator) Thaw(id string) error {
	c, err := s.Container(id)
	if err != nil {
		return err
	}
	if c.state == StateFrozen {
		c.state = StateRunning
	}
	return nil
}

// LimitCPU caps a container at the given fraction of its CPU demand
// (cpu.max semantics). frac >= 1 removes the limit; frac <= 0 is
// rejected — a zero allowance is a freeze, which has its own verb.
func (s *Simulator) LimitCPU(id string, frac float64) error {
	c, err := s.Container(id)
	if err != nil {
		return err
	}
	if frac <= 0 {
		return fmt.Errorf("sim: CPU quota %v for %q out of range (0,1]", frac, id)
	}
	if frac > 1 {
		frac = 1
	}
	c.cpuQuota = frac
	return nil
}

// Stop administratively terminates a container.
func (s *Simulator) Stop(id string) error {
	c, err := s.Container(id)
	if err != nil {
		return err
	}
	if c.state == StateRunning || c.state == StateFrozen {
		c.state = StateStopped
	}
	return nil
}

// Step advances the simulation by one tick: collect demands, allocate
// under contention, and let every running application consume its grant.
func (s *Simulator) Step() {
	ids := s.order
	demands := make([]Demand, len(ids))
	for i, id := range ids {
		demands[i] = s.containers[id].demandForTick(s.tick)
	}
	grants := allocate(s.cfg, demands)
	for i, id := range ids {
		c := s.containers[id]
		c.lastDemand = demands[i]
		c.lastGrant = grants[i]
		switch c.state {
		case StateRunning:
			c.ticksRun++
			c.totalCPU += grants[i].CPU
			c.totalEffectiveCPU += grants[i].EffectiveCPU()
			s.totalGrantedCPU += grants[i].CPU
			if done := c.app.Advance(s.tick, grants[i]); done {
				c.state = StateFinished
				c.residentMB = 0
			}
		case StateFrozen:
			c.ticksFrozen++
		}
	}
	s.tick++
	s.capacityTicks += s.cfg.CPUCapacity()
}

// Run advances n ticks.
func (s *Simulator) Run(n int) {
	for i := 0; i < n; i++ {
		s.Step()
	}
}

// Samples returns the per-container usage samples for the most recent
// tick, in the form Stay-Away's monitoring collects them: granted CPU,
// resident memory, I/O including swap traffic, and network.
func (s *Simulator) Samples() []metrics.Sample {
	out := make([]metrics.Sample, 0, len(s.order))
	for _, id := range s.order {
		c := s.containers[id]
		g := c.lastGrant
		out = append(out, metrics.Sample{VM: id, Values: map[metrics.Metric]float64{
			metrics.MetricCPU:     g.CPU,
			metrics.MetricMemory:  g.MemoryMB,
			metrics.MetricIO:      g.DiskMBps + g.SwapIOMBps,
			metrics.MetricNetwork: g.NetMbps,
		}})
	}
	return out
}

// Utilization returns the machine's average CPU utilization in [0,1] over
// all elapsed ticks.
func (s *Simulator) Utilization() float64 {
	if s.capacityTicks == 0 {
		return 0
	}
	return s.totalGrantedCPU / s.capacityTicks
}

// LastTickUtilization returns the CPU utilization of the most recent tick.
// Summation follows s.order, not the container map: float addition is not
// associative, so a map-ordered sum would differ in the low bits from run
// to run.
func (s *Simulator) LastTickUtilization() float64 {
	var granted float64
	for _, id := range s.order {
		granted += s.containers[id].lastGrant.CPU
	}
	u := granted / s.cfg.CPUCapacity()
	if u > 1 {
		u = 1
	}
	return u
}

// ActiveIDs returns the IDs of containers that still have work, sorted.
func (s *Simulator) ActiveIDs() []string {
	var out []string
	for id, c := range s.containers {
		if c.Active() {
			out = append(out, id)
		}
	}
	sort.Strings(out)
	return out
}
