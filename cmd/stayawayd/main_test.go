package main

import (
	"strings"
	"testing"

	"repro/internal/daemon"
)

func TestOptionsValidate(t *testing.T) {
	pidOpts := func() options {
		return options{sensitivePIDs: []int{1}, batchPIDs: []int{2, 3}, qosFiles: []string{"q"}}
	}
	cgOpts := func() options {
		return options{sensCgroups: []string{"s/vlc"}, batchCgroups: []string{"s/b1", "s/b2"}, qosFiles: []string{"q"}}
	}
	multiOpts := func() options {
		return options{
			sensCgroups:  []string{"s/vlc", "s/kv"},
			batchCgroups: []string{"s/b1", "s/b2"},
			qosFiles:     []string{"q1", "q2"},
			apps:         []string{"vlc", "kv"},
		}
	}

	tests := []struct {
		name       string
		opts       options
		wantCgroup bool
		wantErr    string
	}{
		{"pid mode ok", pidOpts(), false, ""},
		{"cgroup mode ok", cgOpts(), true, ""},
		{"cgroup graded ok", func() options { o := cgOpts(); o.graded = true; return o }(), true, ""},
		{"multi-tenant ok", multiOpts(), true, ""},
		{"multi-tenant unnamed ok", func() options { o := multiOpts(); o.apps = nil; return o }(), true, ""},
		{"no qos source", func() options { o := pidOpts(); o.qosFiles = nil; return o }(), false, "-qos-file"},
		{"no workloads", options{qosFiles: []string{"q"}}, false, "no workloads"},
		{"mixed modes", func() options { o := pidOpts(); o.sensCgroups = []string{"x"}; return o }(), false, "mutually exclusive"},
		{"pid mode missing sensitive", options{batchPIDs: []int{2}, qosFiles: []string{"q"}}, false, "-sensitive-pids"},
		{"pid mode missing batch", options{sensitivePIDs: []int{1}, qosFiles: []string{"q"}}, false, "-batch-pids"},
		{"overlapping pid sets", options{sensitivePIDs: []int{1, 2}, batchPIDs: []int{2}, qosFiles: []string{"q"}}, false, "both sensitive and batch"},
		{"graded without cgroups", func() options { o := pidOpts(); o.graded = true; return o }(), false, "-graded requires cgroup mode"},
		{"memory-high without cgroups", func() options { o := pidOpts(); o.memoryHighMB = 64; return o }(), false, "-memory-high-mb requires"},
		{"cgroup mode missing sensitive", options{batchCgroups: []string{"b"}, qosFiles: []string{"q"}}, false, "-sensitive-cgroup"},
		{"cgroup mode missing batch", options{sensCgroups: []string{"s"}, qosFiles: []string{"q"}}, false, "-batch-cgroups"},
		{"duplicate cgroup", options{sensCgroups: []string{"s"}, batchCgroups: []string{"s"}, qosFiles: []string{"q"}}, false, "listed twice"},
		{"duplicate sensitive cgroup", func() options {
			o := multiOpts()
			o.sensCgroups = []string{"s/vlc", "s/vlc"}
			return o
		}(), false, "listed twice"},
		{"negative memory-high", func() options { o := cgOpts(); o.memoryHighMB = -1; return o }(), false, "non-negative"},
		{"multi pid qos", func() options { o := pidOpts(); o.qosFiles = []string{"a", "b"}; return o }(), false, "one sensitive application"},
		{"qos count mismatch", func() options { o := multiOpts(); o.qosFiles = o.qosFiles[:1]; return o }(), false, "-qos-file"},
		{"app count mismatch", func() options { o := multiOpts(); o.apps = o.apps[:1]; return o }(), false, "one -app per sensitive cgroup"},
		{"duplicate app", func() options { o := multiOpts(); o.apps = []string{"kv", "kv"}; return o }(), false, "distinct -app names"},
		{"event window unbounded ok", func() options { o := cgOpts(); o.eventWindow = -1; return o }(), true, ""},
		{"event window bad", func() options { o := cgOpts(); o.eventWindow = -5; return o }(), false, "-event-window"},
		{"lanes file in pid mode", func() options { o := pidOpts(); o.lanesFile = "lanes.json"; return o }(), false, "-lanes-file requires cgroup mode"},
		{"reload watch without lanes file", func() options { o := cgOpts(); o.reloadWatch = true; return o }(), false, "-reload-watch requires -lanes-file"},
	}
	for _, tt := range tests {
		gotCgroup, err := tt.opts.validate()
		if tt.wantErr == "" {
			if err != nil {
				t.Errorf("%s: unexpected error %v", tt.name, err)
				continue
			}
			if gotCgroup != tt.wantCgroup {
				t.Errorf("%s: cgroupMode = %v, want %v", tt.name, gotCgroup, tt.wantCgroup)
			}
			continue
		}
		if err == nil || !strings.Contains(err.Error(), tt.wantErr) {
			t.Errorf("%s: error = %v, want containing %q", tt.name, err, tt.wantErr)
		}
	}
}

// A misconfigured deployment is diagnosed in ONE attempt: every invalid
// combination appears in the joined error, not just the first.
func TestOptionsValidateReportsAllErrorsAtOnce(t *testing.T) {
	o := options{
		sensCgroups:  []string{"s/vlc", "s/vlc"}, // duplicate
		batchCgroups: nil,                        // missing batch side
		qosFiles:     []string{"q"},              // count mismatch (needs 2)
		apps:         []string{"a", "a", "a"},    // wrong count AND duplicates
		memoryHighMB: -5,                         // negative
	}
	_, err := o.validate()
	if err == nil {
		t.Fatal("expected errors")
	}
	msg := err.Error()
	for _, want := range []string{
		"listed twice",
		"-batch-cgroups required",
		"-qos-file",
		"one -app per sensitive cgroup",
		"distinct -app names",
		"non-negative",
	} {
		if !strings.Contains(msg, want) {
			t.Errorf("joined error missing %q:\n%s", want, msg)
		}
	}
}

func TestParseList(t *testing.T) {
	got := parseList(" a, b ,,c ")
	if len(got) != 3 || got[0] != "a" || got[1] != "b" || got[2] != "c" {
		t.Errorf("parseList = %v", got)
	}
	if parseList("") != nil {
		t.Error("empty list should be nil")
	}
}

func TestListFlag(t *testing.T) {
	var l listFlag
	if err := l.Set("a"); err != nil {
		t.Fatal(err)
	}
	if err := l.Set(" b "); err != nil {
		t.Fatal(err)
	}
	if err := l.Set(""); err != nil {
		t.Fatal(err)
	}
	if len(l) != 2 || l[0] != "a" || l[1] != "b" {
		t.Fatalf("listFlag = %v", l)
	}
	if l.String() != "a,b" {
		t.Fatalf("String() = %q", l.String())
	}
}

// The layout is decided once, when the flags are compiled into the lane
// set: a single flag lane keeps the unsuffixed template (and the legacy
// group and checkpoint names); several flag lanes, or a lanes file even
// with one lane, write one app-suffixed file per lane.
func TestTemplateOutPath(t *testing.T) {
	single := compileLanes(options{sensCgroups: []string{"s/vlc"}, qosFiles: []string{"q"}}, nil)
	if got := single.TemplatePath("/tmp/map.json", "vlc"); got != "/tmp/map.json" {
		t.Fatalf("single = %q", got)
	}
	if d := single.Lanes[0]; !single.Legacy || d.App != "sensitive" || single.Group(d) != "sensitive" {
		t.Fatalf("single flag lane = %+v legacy=%v, want the legacy layout", d, single.Legacy)
	}
	pid := compileLanes(options{sensitivePIDs: []int{1}, batchPIDs: []int{2}, qosFiles: []string{"q"}, apps: []string{"vlc"}}, nil)
	if len(pid.Lanes) != 1 || !pid.Legacy || pid.Lanes[0].App != "vlc" || pid.Lanes[0].QoSFile != "q" {
		t.Fatalf("PID mode = %+v legacy=%v", pid.Lanes, pid.Legacy)
	}
	multi := compileLanes(options{sensCgroups: []string{"s/vlc", "s/kv"}, qosFiles: []string{"q1", "q2"}, apps: []string{"vlc"}}, nil)
	if got := multi.TemplatePath("/tmp/map.json", "vlc"); got != "/tmp/map-vlc.json" {
		t.Fatalf("multi = %q", got)
	}
	if got := multi.TemplatePath("/tmp/map", "kv"); got != "/tmp/map-kv" {
		t.Fatalf("no-ext = %q", got)
	}
	if kv := multi.Lanes[1]; kv.App != "s/kv" || multi.Group(kv) != "s/kv" {
		t.Fatalf("unnamed second lane = %+v, want its cgroup path as app and group", kv)
	}
	file := compileLanes(options{}, []daemon.LaneDef{{App: "vlc", SensitiveCgroup: "s/vlc", QoSFile: "q"}})
	if got := file.TemplatePath("/tmp/map.json", "vlc"); file.Legacy || got != "/tmp/map-vlc.json" {
		t.Fatalf("one-lane lanes file = %q (legacy=%v), want the app-suffixed path", got, file.Legacy)
	}
}
