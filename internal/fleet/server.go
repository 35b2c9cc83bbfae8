package fleet

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"time"

	"repro/internal/registry"
	"repro/internal/statespace"
	"repro/internal/stream"
)

// maxTemplateBytes bounds uploaded template bodies; a fleet template of a
// few thousand states is well under 1 MiB.
const maxTemplateBytes = 16 << 20

// revisionHeader carries an entry's revision on template GET/PUT replies.
const revisionHeader = "X-Stayaway-Revision"

// hostHeader identifies the uploading host on template PUTs.
const hostHeader = "X-Stayaway-Host"

// ServerConfig tunes the control-plane server.
type ServerConfig struct {
	// Registry is the backing template store. Required.
	Registry *registry.Registry
	// Now is the clock, injectable for tests; nil uses time.Now.
	Now func() time.Time
	// Logf, when non-nil, receives one line per rejected request.
	Logf func(format string, args ...any)
	// Hub, when non-nil, enables the server-push event stream at
	// GET /v1/events. The registry's OnPut hook must publish into the
	// same hub (see PublishHook).
	Hub *stream.Hub
	// Metrics, when non-nil, is served at GET /metrics in Prometheus text
	// format and fed by the handlers (delta bytes served, active streams,
	// merge conflicts, template revisions).
	Metrics *stream.MetricSet
	// Key, when non-empty, requires every request (except /healthz and
	// /metrics) to carry a valid HMAC signature; see RequireSignature.
	Key []byte
	// StreamHeartbeat is the idle-stream heartbeat cadence; 0 means 15s.
	StreamHeartbeat time.Duration
}

// Server is the fleet control plane. Safe for concurrent use.
type Server struct {
	cfg ServerConfig

	mu    sync.Mutex
	hosts map[string]HostStatus
}

// NewServer builds a control-plane server over the given registry.
func NewServer(cfg ServerConfig) (*Server, error) {
	if cfg.Registry == nil {
		return nil, fmt.Errorf("fleet: nil registry")
	}
	if cfg.Now == nil {
		cfg.Now = time.Now
	}
	if cfg.StreamHeartbeat <= 0 {
		cfg.StreamHeartbeat = 15 * time.Second
	}
	return &Server{cfg: cfg, hosts: make(map[string]HostStatus)}, nil
}

// Handler returns the HTTP routing table:
//
//	PUT  /v1/templates/{app}        upload a learned template (merged in)
//	GET  /v1/templates/{app}        download the consensus template
//	GET  /v1/templates/{app}/delta  download only states changed since ?since=rev
//	GET  /v1/templates              list every consensus template (scheduler feed)
//	GET  /v1/events                 server-push template stream (SSE; needs a Hub)
//	POST /v1/heartbeat              report host liveness and throttle state
//	GET  /v1/status                 fleet-wide host/template summary
//	GET  /metrics                   Prometheus text metrics (when configured)
//	GET  /healthz                   liveness probe
//
// With a Key configured, every route except /healthz and /metrics
// requires a valid request signature.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("PUT /v1/templates/{app}", s.putTemplate)
	mux.HandleFunc("GET /v1/templates/{app}", s.getTemplate)
	mux.HandleFunc("GET /v1/templates/{app}/delta", s.getDelta)
	mux.HandleFunc("GET /v1/templates", s.listTemplates)
	mux.HandleFunc("GET /v1/events", s.getEvents)
	mux.HandleFunc("POST /v1/heartbeat", s.postHeartbeat)
	mux.HandleFunc("GET /v1/status", s.getStatus)
	if s.cfg.Metrics != nil {
		mux.HandleFunc("GET /metrics", s.getMetrics)
	}
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(w, "ok")
	})
	return RequireSignature(s.cfg.Key, s.cfg.Logf, mux, "/healthz", "/metrics")
}

func (s *Server) logf(format string, args ...any) {
	if s.cfg.Logf != nil {
		s.cfg.Logf(format, args...)
	}
}

func (s *Server) writeError(w http.ResponseWriter, code int, format string, args ...any) {
	msg := fmt.Sprintf(format, args...)
	s.logf("fleet: %d %s", code, msg)
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(errorResponse{Error: msg})
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(v)
}

func (s *Server) putTemplate(w http.ResponseWriter, r *http.Request) {
	app := r.PathValue("app")
	tpl, err := statespace.ReadTemplate(http.MaxBytesReader(w, r.Body, maxTemplateBytes))
	if err != nil {
		s.writeError(w, http.StatusBadRequest, "parse template: %v", err)
		return
	}
	if tpl.SensitiveApp == "" {
		tpl.SensitiveApp = app
	}
	if tpl.SensitiveApp != app {
		s.writeError(w, http.StatusBadRequest,
			"template names app %q but was uploaded for %q", tpl.SensitiveApp, app)
		return
	}
	host := r.Header.Get(hostHeader)
	entry, err := s.cfg.Registry.Put(host, tpl)
	if err != nil {
		code := http.StatusUnprocessableEntity
		if errors.Is(err, statespace.ErrSchemaMismatch) {
			code = http.StatusConflict
		}
		if s.cfg.Metrics != nil {
			s.cfg.Metrics.Counter(metricMergeConflicts, helpMergeConflicts).Add(1)
		}
		s.writeError(w, code, "store template: %v", err)
		return
	}
	if s.cfg.Metrics != nil {
		s.cfg.Metrics.Counter(metricPuts, helpPuts).Add(1)
	}
	w.Header().Set(revisionHeader, strconv.Itoa(entry.Revision))
	writeJSON(w, http.StatusOK, PutTemplateResponse{
		Revision:        entry.Revision,
		States:          len(entry.Template.States),
		ViolationStates: entry.Template.ViolationCount(),
		Hosts:           len(entry.Hosts),
	})
}

func (s *Server) getTemplate(w http.ResponseWriter, r *http.Request) {
	app := r.PathValue("app")
	entry, ok := s.cfg.Registry.Get(app, r.URL.Query().Get("schema"))
	if !ok {
		s.writeError(w, http.StatusNotFound, "no template for app %q", app)
		return
	}
	w.Header().Set(revisionHeader, strconv.Itoa(entry.Revision))
	// Cheap freshness check: a client that already holds this revision
	// skips the body.
	if ifRev := r.URL.Query().Get("rev"); ifRev != "" {
		if rev, err := strconv.Atoi(ifRev); err == nil && rev == entry.Revision {
			w.WriteHeader(http.StatusNotModified)
			return
		}
	}
	var buf bytes.Buffer
	if _, err := entry.Template.WriteTo(&buf); err != nil {
		s.writeError(w, http.StatusInternalServerError, "encode template: %v", err)
		return
	}
	if s.cfg.Metrics != nil {
		s.cfg.Metrics.Counter(metricTemplateBytes, helpTemplateBytes).Add(float64(buf.Len()))
	}
	w.Header().Set("Content-Type", "application/json")
	w.Write(buf.Bytes())
}

// listTemplates serves every stored consensus template with its metadata —
// the feed an interference-aware scheduler bootstraps from: it needs every
// sensitive application's map to score candidate co-locations, not one map
// at a time. Entries come back in deterministic key order. ?app= narrows to
// one application's entries (all schemas); ?meta=1 omits template bodies
// for cheap polling.
func (s *Server) listTemplates(w http.ResponseWriter, r *http.Request) {
	appFilter := r.URL.Query().Get("app")
	metaOnly := r.URL.Query().Get("meta") != ""
	resp := ListTemplatesResponse{Templates: []TemplateEntry{}}
	for _, e := range s.cfg.Registry.Entries() {
		if appFilter != "" && e.Key.App != appFilter {
			continue
		}
		te := TemplateEntry{
			App:             e.Key.App,
			Schema:          e.Key.Schema,
			Revision:        e.Revision,
			States:          len(e.Template.States),
			ViolationStates: e.Template.ViolationCount(),
			Hosts:           len(e.Hosts),
			UpdatedAt:       e.UpdatedAt,
		}
		if !metaOnly {
			te.Template = e.Template
		}
		resp.Templates = append(resp.Templates, te)
	}
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) postHeartbeat(w http.ResponseWriter, r *http.Request) {
	var hb Heartbeat
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20))
	if err := dec.Decode(&hb); err != nil {
		s.writeError(w, http.StatusBadRequest, "parse heartbeat: %v", err)
		return
	}
	if hb.Host == "" {
		s.writeError(w, http.StatusBadRequest, "heartbeat without host")
		return
	}
	s.mu.Lock()
	s.hosts[hb.Host] = HostStatus{
		Host:             hb.Host,
		App:              hb.App,
		Periods:          hb.Periods,
		Violations:       hb.Violations,
		Throttled:        hb.Throttled,
		TemplateRevision: hb.TemplateRevision,
		LastSeen:         s.cfg.Now(),
	}
	s.mu.Unlock()
	w.WriteHeader(http.StatusNoContent)
}

func (s *Server) getStatus(w http.ResponseWriter, _ *http.Request) {
	var resp StatusResponse
	s.mu.Lock()
	for _, h := range s.hosts {
		resp.Hosts = append(resp.Hosts, h)
		if h.Throttled {
			resp.ThrottledHosts++
		}
	}
	s.mu.Unlock()
	sort.Slice(resp.Hosts, func(i, j int) bool { return resp.Hosts[i].Host < resp.Hosts[j].Host })
	for _, e := range s.cfg.Registry.Entries() {
		resp.Templates = append(resp.Templates, TemplateStatus{
			App:             e.Key.App,
			Schema:          e.Key.Schema,
			Revision:        e.Revision,
			States:          len(e.Template.States),
			ViolationStates: e.Template.ViolationCount(),
			Hosts:           len(e.Hosts),
			UpdatedAt:       e.UpdatedAt,
		})
	}
	writeJSON(w, http.StatusOK, resp)
}
