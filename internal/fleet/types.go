// Package fleet is the HTTP control plane that lets Stay-Away hosts share
// learned state-space templates (§6 scaled from one host to a fleet): a
// JSON API server fronting the template registry, with delta sync and an
// SSE push stream; a client with timeouts and retry/backoff; and Syncer,
// one per protected application lane, which bootstraps the lane, pushes
// its map, and follows the stream with delta-poll fallback. Sync degrades
// gracefully: when the registry is unreachable a daemon keeps controlling
// from its local map and resyncs once the registry recovers.
package fleet

import (
	"time"

	"repro/internal/statespace"
)

// Heartbeat is one host's periodic liveness/status report.
type Heartbeat struct {
	// Host identifies the reporting host.
	Host string `json:"host"`
	// App is the sensitive application the host protects.
	App string `json:"app,omitempty"`
	// Periods is the host's monitoring-period count so far.
	Periods int `json:"periods"`
	// Violations is the host's QoS-violation count so far.
	Violations int `json:"violations"`
	// Throttled reports whether the host's batch applications are
	// currently paused.
	Throttled bool `json:"throttled"`
	// TemplateRevision is the registry revision the host last synced,
	// 0 when it runs on a purely local map.
	TemplateRevision int `json:"template_revision,omitempty"`
}

// PutTemplateResponse acknowledges an accepted template upload.
type PutTemplateResponse struct {
	// Revision is the consensus template's new revision.
	Revision int `json:"revision"`
	// States and ViolationStates describe the merged consensus map.
	States          int `json:"states"`
	ViolationStates int `json:"violation_states"`
	// Hosts is the number of distinct contributing hosts.
	Hosts int `json:"hosts"`
}

// HostStatus is one host's last-known state in the fleet status report.
type HostStatus struct {
	Host             string    `json:"host"`
	App              string    `json:"app,omitempty"`
	Periods          int       `json:"periods"`
	Violations       int       `json:"violations"`
	Throttled        bool      `json:"throttled"`
	TemplateRevision int       `json:"template_revision,omitempty"`
	LastSeen         time.Time `json:"last_seen"`
}

// TemplateStatus summarizes one stored consensus template.
type TemplateStatus struct {
	App             string    `json:"app"`
	Schema          string    `json:"schema"`
	Revision        int       `json:"revision"`
	States          int       `json:"states"`
	ViolationStates int       `json:"violation_states"`
	Hosts           int       `json:"hosts"`
	UpdatedAt       time.Time `json:"updated_at"`
}

// TemplateEntry is one consensus template in the list-all feed: the
// TemplateStatus metadata plus (unless meta-only was requested) the full
// template body.
type TemplateEntry struct {
	App             string               `json:"app"`
	Schema          string               `json:"schema"`
	Revision        int                  `json:"revision"`
	States          int                  `json:"states"`
	ViolationStates int                  `json:"violation_states"`
	Hosts           int                  `json:"hosts"`
	UpdatedAt       time.Time            `json:"updated_at"`
	Template        *statespace.Template `json:"template,omitempty"`
}

// ListTemplatesResponse is the list-all feed served at GET /v1/templates —
// what an interference-aware scheduler pulls to score co-locations for
// every sensitive application at once.
type ListTemplatesResponse struct {
	Templates []TemplateEntry `json:"templates"`
}

// StatusResponse is the fleet-wide summary served at /v1/status.
type StatusResponse struct {
	Hosts     []HostStatus     `json:"hosts"`
	Templates []TemplateStatus `json:"templates"`
	// ThrottledHosts counts hosts currently throttling their batch load.
	ThrottledHosts int `json:"throttled_hosts"`
}

// StreamUpdate is the payload of one delta event on the template stream:
// which consensus template changed, the revision the delta brings a
// subscriber to, and the delta itself.
type StreamUpdate struct {
	App      string                    `json:"app"`
	Schema   string                    `json:"schema"`
	Revision int                       `json:"revision"`
	Delta    *statespace.TemplateDelta `json:"delta"`
}

// errorResponse is the JSON body of non-2xx replies.
type errorResponse struct {
	Error string `json:"error"`
}
