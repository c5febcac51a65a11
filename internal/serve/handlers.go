package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/pprof"
	"os"
	"path/filepath"

	"github.com/pmrace-go/pmrace/api"
	"github.com/pmrace-go/pmrace/internal/artifact"
	"github.com/pmrace-go/pmrace/internal/obs"
)

// maxSpecBytes caps the body of POST /campaigns. A campaign spec is a few
// hundred bytes; the cap keeps an oversized or endless body from being read
// into memory.
const maxSpecBytes = 1 << 20

// Handler returns the control plane's HTTP handler: the versioned REST API
// under api.BasePath plus the operational endpoints (/healthz, /readyz,
// /status, /metrics) and the Go profiling endpoints under /debug/pprof/.
func (s *Supervisor) Handler() http.Handler {
	mux := http.NewServeMux()

	mux.HandleFunc("GET "+api.BasePath, func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, s.Info())
	})
	mux.HandleFunc("GET "+api.BasePath+"/campaigns", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, s.List())
	})
	mux.HandleFunc("POST "+api.BasePath+"/campaigns", func(w http.ResponseWriter, r *http.Request) {
		var spec api.CampaignSpec
		body := http.MaxBytesReader(w, r.Body, maxSpecBytes)
		if err := json.NewDecoder(body).Decode(&spec); err != nil {
			writeErr(w, &api.Error{StatusCode: 400, Code: api.CodeBadRequest,
				Message: "decoding spec: " + err.Error()})
			return
		}
		doc, err := s.Submit(spec)
		if err != nil {
			writeErr(w, err)
			return
		}
		writeJSON(w, http.StatusCreated, doc)
	})
	mux.HandleFunc("GET "+api.BasePath+"/campaigns/{id}", func(w http.ResponseWriter, r *http.Request) {
		doc, err := s.Get(r.PathValue("id"))
		if err != nil {
			writeErr(w, err)
			return
		}
		writeJSON(w, http.StatusOK, doc)
	})
	mux.HandleFunc("DELETE "+api.BasePath+"/campaigns/{id}", func(w http.ResponseWriter, r *http.Request) {
		doc, err := s.Cancel(r.PathValue("id"))
		if err != nil {
			writeErr(w, err)
			return
		}
		writeJSON(w, http.StatusOK, doc)
	})
	mux.HandleFunc("GET "+api.BasePath+"/campaigns/{id}/events", func(w http.ResponseWriter, r *http.Request) {
		c, err := s.get(r.PathValue("id"))
		if err != nil {
			writeErr(w, err)
			return
		}
		// The emitter exists from submission; subscribers attached while
		// the campaign is Pending see the complete stream. On a terminal
		// campaign the emitter is closed and the stream ends immediately.
		// Campaigns restored from a pre-restart record have no emitter at
		// all — their event stream died with the old process.
		if c.em == nil {
			writeErr(w, &api.Error{StatusCode: 409, Code: api.CodeConflict,
				Message: fmt.Sprintf("campaign %s finished before a server restart; its event stream is gone", c.id)})
			return
		}
		ServeSSE(w, r, c.em)
	})
	mux.HandleFunc("GET "+api.BasePath+"/campaigns/{id}/artifacts", func(w http.ResponseWriter, r *http.Request) {
		s.handleArtifactList(w, r)
	})
	mux.HandleFunc("GET "+api.BasePath+"/campaigns/{id}/artifacts/{name}", func(w http.ResponseWriter, r *http.Request) {
		s.handleArtifactGet(w, r)
	})
	mux.HandleFunc("GET "+api.BasePath+"/campaigns/{id}/trace", func(w http.ResponseWriter, r *http.Request) {
		s.handleTrace(w, r)
	})

	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("GET /readyz", func(w http.ResponseWriter, r *http.Request) {
		// A draining server is alive but must fall out of load balancing.
		if s.Draining() {
			http.Error(w, "draining", http.StatusServiceUnavailable)
			return
		}
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("GET /status", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, struct {
			Server    api.ServerInfo `json:"server"`
			Campaigns []api.Campaign `json:"campaigns"`
		}{s.Info(), s.List()})
	})
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)

	return mux
}

// ServeSSE streams em's event feed to one HTTP client as Server-Sent
// Events. Each event becomes one frame: `event:` carries the kind, `id:`
// the emitter sequence number, and `data:` the obs.Envelope a JSONL trace
// writes per line. The stream ends when the emitter closes (campaign done),
// the client disconnects, or the request context is cancelled. Each client
// gets its own Subscribe channel, so any number of observers can stream
// without stealing events from the in-process Campaign.Events channel or
// from each other.
func ServeSSE(w http.ResponseWriter, r *http.Request, em *obs.Emitter) {
	fl, ok := w.(http.Flusher)
	if !ok {
		http.Error(w, "streaming unsupported", http.StatusInternalServerError)
		return
	}
	ch, unsub := em.Subscribe(1024)
	defer unsub()

	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.Header().Set("Connection", "keep-alive")
	w.WriteHeader(http.StatusOK)
	fl.Flush()

	for {
		// Prefer draining buffered events over cancellation: a campaign
		// closes its emitter and then its server back to back, and the
		// terminal events (campaign_done) must not lose that race. A
		// disconnected client ends the loop through the write error below.
		var ev obs.Event
		var ok bool
		select {
		case ev, ok = <-ch:
		default:
			select {
			case ev, ok = <-ch:
			case <-r.Context().Done():
				return
			}
		}
		if !ok {
			return
		}
		m := ev.Meta()
		data, err := json.Marshal(obs.Envelope{
			Kind: ev.Kind(),
			Seq:  m.Seq,
			AtMs: float64(m.At.Microseconds()) / 1e3,
			Data: ev,
		})
		if err != nil {
			return
		}
		if _, err := fmt.Fprintf(w, "event: %s\nid: %d\ndata: %s\n\n", ev.Kind(), m.Seq, data); err != nil {
			return
		}
		fl.Flush()
	}
}

// handleMetrics merges every campaign's metrics registry into one labeled
// Prometheus exposition: each family appears once, with one labeled series
// per campaign (campaign="c0001",target="pclht"), plus the server-scoped
// registry (scope="server") carrying admission gauges and self-telemetry.
func (s *Supervisor) handleMetrics(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	// Admission-state gauges are sampled at scrape time: the queue depth and
	// budget-in-use are supervisor state, not event-driven counters.
	s.reg.Gauge(obs.GQueueDepth).Set(int64(len(s.queue)))
	s.reg.Gauge(obs.GWorkerBudgetInUse).Set(int64(s.used))
	regs := make([]obs.LabeledRegistry, 0, len(s.order)+1)
	regs = append(regs, obs.LabeledRegistry{
		Labels: []obs.Label{{Name: "scope", Value: "server"}},
		Reg:    s.reg,
	})
	for _, id := range s.order {
		c := s.campaigns[id]
		if c.em == nil { // restored after a restart: no live registry
			continue
		}
		regs = append(regs, obs.LabeledRegistry{
			Labels: []obs.Label{{Name: "campaign", Value: c.id}, {Name: "target", Value: c.spec.Target}},
			Reg:    c.em.Registry(),
		})
	}
	s.mu.Unlock()
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_ = obs.WritePrometheusLabeled(w, regs...)
}

// handleTrace serves a campaign's span timeline as Chrome trace-event JSON,
// viewable directly in Perfetto (ui.perfetto.dev). Works on running and
// terminal campaigns alike: the tracer outlives the fuzzer.
func (s *Supervisor) handleTrace(w http.ResponseWriter, r *http.Request) {
	c, err := s.get(r.PathValue("id"))
	if err != nil {
		writeErr(w, err)
		return
	}
	if c.tr == nil {
		writeErr(w, &api.Error{StatusCode: 404, Code: api.CodeNotFound,
			Message: fmt.Sprintf("tracing disabled for campaign %s", c.id)})
		return
	}
	w.Header().Set("Content-Type", "application/json")
	_ = obs.WriteChromeTrace(w, c.tr.Spans(), c.tr.Meta())
}

func (s *Supervisor) handleArtifactList(w http.ResponseWriter, r *http.Request) {
	c, err := s.get(r.PathValue("id"))
	if err != nil {
		writeErr(w, err)
		return
	}
	if c.artDir == "" {
		writeJSON(w, http.StatusOK, []api.ArtifactInfo{})
		return
	}
	names, err := artifact.ListBundles(c.artDir)
	if err != nil {
		writeErr(w, &api.Error{StatusCode: 500, Code: api.CodeInternal, Message: err.Error()})
		return
	}
	infos := make([]api.ArtifactInfo, 0, len(names))
	for _, name := range names {
		info := api.ArtifactInfo{Name: name}
		var rep artifact.Report
		if raw, err := readFileJSON(filepath.Join(c.artDir, name, artifact.BugFile), &rep); err == nil && raw {
			info.Fingerprint = rep.Fingerprint
			info.Kind = rep.Kind
			info.Status = rep.Status
		}
		infos = append(infos, info)
	}
	writeJSON(w, http.StatusOK, infos)
}

func (s *Supervisor) handleArtifactGet(w http.ResponseWriter, r *http.Request) {
	c, err := s.get(r.PathValue("id"))
	if err != nil {
		writeErr(w, err)
		return
	}
	name := r.PathValue("name")
	if c.artDir == "" || name == "" || name != filepath.Base(name) || name == "." || name == ".." {
		writeErr(w, &api.Error{StatusCode: 404, Code: api.CodeNotFound,
			Message: fmt.Sprintf("no artifact %q in campaign %s", name, c.id)})
		return
	}
	b, lerr := artifact.Load(filepath.Join(c.artDir, name))
	if lerr != nil {
		writeErr(w, &api.Error{StatusCode: 404, Code: api.CodeNotFound,
			Message: fmt.Sprintf("no artifact %q in campaign %s", name, c.id)})
		return
	}
	doc, derr := bundleDoc(b)
	if derr != nil {
		writeErr(w, &api.Error{StatusCode: 500, Code: api.CodeInternal, Message: derr.Error()})
		return
	}
	writeJSON(w, http.StatusOK, doc)
}

// bundleDoc re-frames an artifact bundle as the wire envelope. The bundle
// documents cross as verbatim JSON (schema-versioned by bug.json itself),
// so a JSON round-trip is the conversion.
func bundleDoc(b *artifact.Bundle) (api.ArtifactBundle, error) {
	doc := api.ArtifactBundle{Seed: b.Seed}
	remap := func(src, dst any) error {
		raw, err := json.Marshal(src)
		if err != nil {
			return err
		}
		return json.Unmarshal(raw, dst)
	}
	if err := remap(b.Bug, &doc.Bug); err != nil {
		return doc, err
	}
	if err := remap(b.Schedule, &doc.Schedule); err != nil {
		return doc, err
	}
	if len(b.Trace) > 0 {
		if err := remap(b.Trace, &doc.Trace); err != nil {
			return doc, err
		}
	}
	if len(b.PMDiff) > 0 {
		if err := remap(b.PMDiff, &doc.PMDiff); err != nil {
			return doc, err
		}
	}
	if len(b.Spans) > 0 {
		if err := remap(b.Spans, &doc.Spans); err != nil {
			return doc, err
		}
	}
	return doc, nil
}

// readFileJSON decodes path into v, reporting whether the file existed.
func readFileJSON(path string, v any) (bool, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return false, err
	}
	return true, json.Unmarshal(raw, v)
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

// writeErr renders the api.Error envelope (wrapping foreign errors as
// internal) with its HTTP status.
func writeErr(w http.ResponseWriter, err error) {
	var ae *api.Error
	if !errors.As(err, &ae) {
		ae = &api.Error{StatusCode: 500, Code: api.CodeInternal, Message: err.Error()}
	}
	status := ae.StatusCode
	if status == 0 {
		status = http.StatusInternalServerError
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(ae)
}
