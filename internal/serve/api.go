package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"time"

	"gsight/internal/core"
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

// placeResponse is the acknowledgement for one placement.
type placeResponse struct {
	Seq       uint64  `json:"seq"`
	Order     uint64  `json:"order,omitempty"`
	Name      string  `json:"name"`
	Outcome   string  `json:"outcome"`
	Placement []int   `json:"placement,omitempty"`
	Reason    string  `json:"reason,omitempty"`
	PredIPC   float64 `json:"pred_ipc,omitempty"`
	PredJCTS  float64 `json:"pred_jct_s,omitempty"`
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

// maxBodyBytes bounds request bodies (a batch of a few hundred
// placements fits with room to spare).
const maxBodyBytes = 1 << 20

// defaultRequestTimeout bounds one request's wait on the committer.
const defaultRequestTimeout = 5 * time.Second

// Handler mounts the serving API on a fresh mux:
//
//	POST /v1/place     one placement (or {"batch": [...]} for many)
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
	reg := s.cfg.Sink.Registry
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4")
		_ = reg.WritePrometheus(w)
	})
	return mux
}

// reqTimeout resolves the per-request deadline.
func (s *Server) reqTimeout() time.Duration { return defaultRequestTimeout }

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

// placeBody accepts either a single PlaceRequest or {"batch": [...]}.
type placeBody struct {
	PlaceRequest
	Batch []PlaceRequest `json:"batch,omitempty"`
}

func (s *Server) handlePlace(w http.ResponseWriter, r *http.Request) {
	var body placeBody
	if !decodeBody(w, r, &body) {
		return
	}
	reqs := body.Batch
	if len(reqs) == 0 {
		reqs = []PlaceRequest{body.PlaceRequest}
	}
	for _, pr := range reqs {
		if _, ok := s.cat.Get(pr.Workload); !ok {
			writeJSON(w, http.StatusBadRequest, errorResponse{
				Error: fmt.Sprintf("unknown workload %q (see /v1/state for the catalog)", pr.Workload)})
			return
		}
	}
	ctx, cancel := context.WithTimeout(r.Context(), s.reqTimeout())
	defer cancel()
	t0 := time.Now()
	if len(body.Batch) == 0 {
		resp := s.enqueue(ctx, &pending{kind: kindPlace, order: reqs[0].Order,
			arch: reqs[0].Workload, qps: reqs[0].QPSFrac, reply: make(chan pendingResp, 1)})
		s.met.placeLatency.Observe(time.Since(t0).Seconds())
		writeResp(w, resp)
		return
	}
	// Batch mode: enqueue every request, then gather. Items keep their
	// client order numbers; the committer coalesces whatever lands in
	// the same batch window into single PlaceAll/fsync rounds.
	ps := make([]*pending, len(reqs))
	answers := make([]pendingResp, len(reqs))
	for i, pr := range reqs {
		ps[i] = &pending{kind: kindPlace, order: pr.Order, arch: pr.Workload,
			qps: pr.QPSFrac, reply: make(chan pendingResp, 1)}
	}
	for i, p := range ps {
		answers[i] = s.enqueue(ctx, p)
	}
	s.met.placeLatency.Observe(time.Since(t0).Seconds())
	out := make([]json.RawMessage, 0, len(answers))
	for _, a := range answers {
		if a.err != nil {
			writeResp(w, a) // first failure fails the batch call
			return
		}
		out = append(out, a.payload)
	}
	writeJSON(w, http.StatusOK, map[string]interface{}{"results": out})
}

func (s *Server) handleObserve(w http.ResponseWriter, r *http.Request) {
	var body ObserveRequest
	if !decodeBody(w, r, &body) {
		return
	}
	if _, ok := qosKind(body.QoS); !ok {
		writeJSON(w, http.StatusBadRequest, errorResponse{
			Error: fmt.Sprintf("unknown qos kind %q (want ipc, p99 or jct)", body.QoS)})
		return
	}
	ctx, cancel := context.WithTimeout(r.Context(), s.reqTimeout())
	defer cancel()
	writeResp(w, s.enqueue(ctx, &pending{kind: kindObserve, order: body.Order,
		name: body.Name, qos: body.QoS, value: body.Value, reply: make(chan pendingResp, 1)}))
}

func (s *Server) handleRelease(w http.ResponseWriter, r *http.Request) {
	var body ReleaseRequest
	if !decodeBody(w, r, &body) {
		return
	}
	ctx, cancel := context.WithTimeout(r.Context(), s.reqTimeout())
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
	// Reads committer-owned values without the committer: advisory
	// numbers for operators, not a linearizable view.
	writeJSON(w, http.StatusOK, stateResponse{
		Applied:   s.applied,
		Servers:   s.state.NumServers(),
		Running:   s.state.NumRunning(),
		Catalog:   s.cat.Names(),
		Snapshots: s.durableGen.Load(),
		UptimeS:   time.Since(s.started).Seconds(),
		Trained:   s.pred.SamplesSeen(core.IPCQoS) > 0,
	})
}

// parseOrder is a small helper shared with the load generator.
func parseOrder(s string) uint64 {
	v, _ := strconv.ParseUint(s, 10, 64)
	return v
}
