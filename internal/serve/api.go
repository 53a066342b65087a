package serve

import (
	"context"
	"encoding/json"
	"net/http"
	"time"
)

// HTTP/JSON wire schema. Every mutating endpoint answers only after
// its WAL record is fsynced; overload answers 429 + Retry-After so
// clients back off instead of queueing into a timeout.

// PlaceRequest asks for one placement.
type PlaceRequest struct {
	// Workload names a catalog archetype (e.g. "matmul",
	// "social-network").
	Workload string `json:"workload"`
	// QPSFrac overrides the LS operating point (0 = default 0.6).
	QPSFrac float64 `json:"qps_frac,omitempty"`
	// Order, when > 0, is the client-assigned global sequence number:
	// the daemon admits orders strictly in sequence, making the
	// decision stream independent of network interleaving (the
	// failover gate's replayable-load mode). 0 = unordered.
	Order uint64 `json:"order,omitempty"`
}

// ObserveRequest feeds one QoS measurement back to the online learner.
type ObserveRequest struct {
	// Name is the instance name a placement acknowledgement returned.
	Name string `json:"name"`
	// QoS is "ipc", "p99" or "jct".
	QoS string `json:"qos"`
	// Value is the measured QoS.
	Value float64 `json:"value"`
	Order uint64  `json:"order,omitempty"`
}

type observeResponse struct {
	Seq     uint64 `json:"seq"`
	Order   uint64 `json:"order,omitempty"`
	Applied bool   `json:"applied"`
}

// ReleaseRequest frees a placed instance.
type ReleaseRequest struct {
	Name  string `json:"name"`
	Order uint64 `json:"order,omitempty"`
}

type releaseResponse struct {
	Seq      uint64 `json:"seq"`
	Order    uint64 `json:"order,omitempty"`
	Released bool   `json:"released"`
}

type errorResponse struct {
	Error string `json:"error"`
}

// maxBodyBytes bounds request bodies; every request body is one small
// JSON object, so this only stops a client from streaming garbage.
const maxBodyBytes = 1 << 20

// defaultRequestTimeout bounds one request's wait on the committer.
const defaultRequestTimeout = 5 * time.Second

// Handler mounts the serving API on a fresh mux:
//
//	POST /v1/place     one placement
//	POST /v1/observe   QoS feedback → online learning
//	POST /v1/release   free an instance
//	POST /v1/snapshot  force a checkpoint rotation (answers once it is durable)
//	GET  /v1/state     cluster + daemon status
//	GET  /healthz      liveness
//	GET  /readyz       readiness (false until replay done, false again while draining)
//	GET  /metrics      Prometheus text format
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/place", s.handlePlace)
	mux.HandleFunc("/v1/observe", s.handleObserve)
	mux.HandleFunc("/v1/release", s.handleRelease)
	mux.HandleFunc("/v1/snapshot", s.handleSnapshot)
	mux.HandleFunc("/v1/state", s.handleState)
	s.health.Handle(mux)
	mux.Handle("/metrics", s.cfg.Sink.Registry)
	return mux
}

func writeJSON(w http.ResponseWriter, status int, v interface{}) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v)
}

// writeResp translates a committer answer to HTTP. 429s carry
// Retry-After so well-behaved clients back off.
func writeResp(w http.ResponseWriter, r pendingResp) {
	if r.err != nil {
		status := r.status
		if status == 0 {
			status = http.StatusInternalServerError
		}
		if status == http.StatusTooManyRequests {
			w.Header().Set("Retry-After", "1")
		}
		writeJSON(w, status, errorResponse{Error: r.err.Error()})
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	w.Write(r.payload)
	w.Write([]byte("\n"))
}

func decodeBody(w http.ResponseWriter, r *http.Request, v interface{}) bool {
	if r.Method != http.MethodPost {
		writeJSON(w, http.StatusMethodNotAllowed, errorResponse{Error: "POST required"})
		return false
	}
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		writeJSON(w, http.StatusBadRequest, errorResponse{Error: err.Error()})
		return false
	}
	return true
}

func (s *Server) handlePlace(w http.ResponseWriter, r *http.Request) {
	var body PlaceRequest
	if !decodeBody(w, r, &body) {
		return
	}
	if err := s.validate(kindPlace, body.Workload, ""); err != nil {
		writeJSON(w, http.StatusBadRequest, errorResponse{Error: err.Error()})
		return
	}
	ctx, cancel := context.WithTimeout(r.Context(), defaultRequestTimeout)
	defer cancel()
	t0 := time.Now()
	resp := s.enqueue(ctx, &pending{kind: kindPlace, order: body.Order,
		arch: body.Workload, qps: body.QPSFrac, reply: make(chan pendingResp, 1)})
	s.met.placeLatency.Observe(time.Since(t0).Seconds())
	writeResp(w, resp)
}

func (s *Server) handleObserve(w http.ResponseWriter, r *http.Request) {
	var body ObserveRequest
	if !decodeBody(w, r, &body) {
		return
	}
	if err := s.validate(kindObserve, "", body.QoS); err != nil {
		writeJSON(w, http.StatusBadRequest, errorResponse{Error: err.Error()})
		return
	}
	ctx, cancel := context.WithTimeout(r.Context(), defaultRequestTimeout)
	defer cancel()
	writeResp(w, s.enqueue(ctx, &pending{kind: kindObserve, order: body.Order,
		name: body.Name, qos: body.QoS, value: body.Value, reply: make(chan pendingResp, 1)}))
}

func (s *Server) handleRelease(w http.ResponseWriter, r *http.Request) {
	var body ReleaseRequest
	if !decodeBody(w, r, &body) {
		return
	}
	ctx, cancel := context.WithTimeout(r.Context(), defaultRequestTimeout)
	defer cancel()
	writeResp(w, s.enqueue(ctx, &pending{kind: kindRelease, order: body.Order,
		name: body.Name, reply: make(chan pendingResp, 1)}))
}

func (s *Server) handleSnapshot(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeJSON(w, http.StatusMethodNotAllowed, errorResponse{Error: "POST required"})
		return
	}
	ctx, cancel := context.WithTimeout(r.Context(), 30*time.Second)
	defer cancel()
	writeResp(w, s.enqueue(ctx, &pending{kind: ctlSnapshot, reply: make(chan pendingResp, 1)}))
}

// stateResponse is the GET /v1/state body.
type stateResponse struct {
	Applied   uint64   `json:"applied"`
	Servers   int      `json:"servers"`
	Running   int      `json:"running"`
	Catalog   []string `json:"catalog"`
	Snapshots uint64   `json:"snapshot_gen"` // newest durable generation
	UptimeS   float64  `json:"uptime_s"`
	Trained   bool     `json:"trained"`
}

func (s *Server) handleState(w http.ResponseWriter, r *http.Request) {
	// The committer's published values: advisory numbers for
	// operators, not a linearizable view.
	writeJSON(w, http.StatusOK, stateResponse{
		Applied:   s.pubApplied.Load(),
		Servers:   s.state.NumServers(),
		Running:   int(s.pubRunning.Load()),
		Catalog:   s.cat.Names(),
		Snapshots: s.durableGen.Load(),
		UptimeS:   time.Since(s.started).Seconds(),
		Trained:   s.pubTrained.Load(),
	})
}
