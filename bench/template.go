package main

import (
	"math/rand"
	"sort"

	"repro/internal/mds"
	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/statespace"
)

const (
	templateDim       = 8
	templateLandmarks = 128
	// templateSeed fixes the fleet template: it is the same map on every
	// run, as a registry would serve it. The run seed drives the hosts.
	// (Seeding the template too was tried: it doubled the run-to-run
	// spread of every timing on the map workloads, because all hosts of a
	// run share the one template and its geometry does not average out.)
	templateSeed = 7
)

// fleetTemplate builds the learned map a fleet merge would hand a host:
// n states seeded in the unit measurement cube, placed by one landmark
// MDS embedding of those vectors, with the violation label on the tenth
// of states whose batch slot is busiest. The coordinates are an
// embedding of the vectors — not random numbers, as the root
// bench_test.go's syntheticTemplate uses — because nearest-safe
// distances and disc radii, and so forecast cost, only mean something
// when 2-D distance tracks measurement distance.
func fleetTemplate(seed int64, n int) (*statespace.Template, error) {
	rng := rand.New(rand.NewSource(seed))
	vectors := make([][]float64, n)
	for i := range vectors {
		v := make([]float64, templateDim)
		for d := range v {
			v[d] = rng.Float64()
		}
		vectors[i] = v
	}
	res, err := mds.LandmarkMDSVectors(vectors, templateLandmarks, mds.DefaultOptions(rng))
	if err != nil {
		return nil, err
	}

	// The batch VM is the schema's second slot: the upper half of the
	// vector.
	batchSum := func(v []float64) float64 {
		var s float64
		for _, x := range v[templateDim/2:] {
			s += x
		}
		return s
	}
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		return batchSum(vectors[order[a]]) > batchSum(vectors[order[b]])
	})
	violation := make([]bool, n)
	for _, i := range order[:n/10] {
		violation[i] = true
	}

	host := sim.DefaultHostConfig()
	t := &statespace.Template{
		Version:       2,
		SensitiveApp:  sensitiveID,
		Dim:           templateDim,
		SchemaVMs:     []string{sensitiveID, "batch"},
		SchemaMetrics: metrics.DefaultMetrics(),
		Ranges:        metrics.DefaultRanges(host.Cores, host.MemoryMB, host.DiskMBps, host.NetMbps),
		States:        make([]statespace.TemplateState, n),
	}
	for i := range t.States {
		label := statespace.Safe
		if violation[i] {
			label = statespace.Violation
		}
		t.States[i] = statespace.TemplateState{
			X:      res.Config[i].X,
			Y:      res.Config[i].Y,
			Label:  label.String(),
			Weight: 1,
			Vector: vectors[i],
		}
	}
	return t, nil
}
