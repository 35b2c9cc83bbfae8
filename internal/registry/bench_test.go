package registry

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"sync/atomic"
	"testing"

	"repro/internal/statespace"
)

// benchTemplate builds a two-metric template with n seeded-random states;
// the tight epsilon in the bench configs keeps dedup from collapsing them.
func benchTemplate(rng *rand.Rand, app string, n int) *statespace.Template {
	t := tpl(app, testRanges())
	for i := 0; i < n; i++ {
		label := statespace.Safe.String()
		if rng.Float64() < 0.2 {
			label = statespace.Violation.String()
		}
		t.States = append(t.States, statespace.TemplateState{
			X:      rng.Float64()*2 - 1,
			Y:      rng.Float64()*2 - 1,
			Label:  label,
			Weight: 1,
			Vector: []float64{rng.Float64(), rng.Float64()},
		})
	}
	return t
}

// BenchmarkRegistrySharded measures concurrent host uploads against the
// sharded store: every Put Procrustes-merges into its application's
// consensus map under that shard's lock, so throughput should scale with
// the shard count until the merge work itself dominates.
func BenchmarkRegistrySharded(b *testing.B) {
	const apps = 64
	for _, shards := range []int{1, 4, 16} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			reg, err := Open(Config{Now: testClock(), MergeEpsilon: 0.01, Shards: shards})
			if err != nil {
				b.Fatal(err)
			}
			rng := rand.New(rand.NewSource(7))
			uploads := make([]*statespace.Template, apps)
			for i := range uploads {
				uploads[i] = benchTemplate(rng, fmt.Sprintf("app-%02d", i), 10)
			}
			var next int64
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				for pb.Next() {
					i := int(atomic.AddInt64(&next, 1))
					t := uploads[i%apps]
					if _, err := reg.Put(fmt.Sprintf("host-%03d", i%256), t); err != nil {
						b.Error(err)
						return
					}
				}
			})
		})
	}
}

// BenchmarkDeltaSync compares what one "is anything new?" refresh costs a
// caught-up-but-one client under delta sync (conditional request serving
// only the changed states) versus whole-template polling (re-encoding the
// full consensus map every time). bytes/op is the payload a registry
// would put on the wire per refresh.
func BenchmarkDeltaSync(b *testing.B) {
	reg, err := Open(Config{Now: testClock(), MergeEpsilon: 0.001})
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	base := benchTemplate(rng, "vlc", 200)
	if _, err := reg.Put("host-a", base); err != nil {
		b.Fatal(err)
	}
	// One more violation learned somewhere in the fleet: revision 2, one
	// changed state.
	upd := benchTemplate(rng, "vlc", 0)
	upd.States = append(upd.States, statespace.TemplateState{
		X: 2, Y: 2, Label: statespace.Violation.String(), Weight: 1,
		Vector: []float64{2.1, 2.2},
	})
	entry, err := reg.Put("host-b", upd)
	if err != nil {
		b.Fatal(err)
	}

	b.Run("delta", func(b *testing.B) {
		var bytes int64
		for i := 0; i < b.N; i++ {
			d, ok := reg.DeltaSince("vlc", "", entry.Revision-1)
			if !ok {
				b.Fatal("no delta entry")
			}
			raw, err := json.Marshal(d)
			if err != nil {
				b.Fatal(err)
			}
			bytes = int64(len(raw))
		}
		b.ReportMetric(float64(bytes), "bytes/op")
	})
	b.Run("full", func(b *testing.B) {
		var bytes int64
		for i := 0; i < b.N; i++ {
			e, ok := reg.Get("vlc", "")
			if !ok {
				b.Fatal("no entry")
			}
			raw, err := json.Marshal(e.Template)
			if err != nil {
				b.Fatal(err)
			}
			bytes = int64(len(raw))
		}
		b.ReportMetric(float64(bytes), "bytes/op")
	})
}
