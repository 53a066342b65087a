package telemetry

import (
	"expvar"
	"net"
	"net/http"
	"net/http/pprof"
)

// ServeDebug starts a background debug HTTP server on addr exposing
//
//	/metrics       — the registry in Prometheus text format
//	/healthz       — liveness probe (always OK)
//	/readyz        — readiness probe (always OK)
//	/debug/vars    — expvar
//	/debug/pprof/  — runtime profiling (net/http/pprof)
//
// It returns the bound address (useful with ":0") or an error if the
// listener cannot be created. The server lives until the process exits;
// batch tools serve while their run is in flight.
func ServeDebug(addr string, reg *Registry) (string, error) {
	mux := http.NewServeMux()
	(*Health)(nil).Handle(mux) // no health state: always-OK probes
	mux.Handle("/metrics", reg)
	mux.Handle("/debug/vars", expvar.Handler())
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", err
	}
	go func() { _ = http.Serve(ln, mux) }()
	return ln.Addr().String(), nil
}

// ServeHTTP answers /metrics: the registry in Prometheus text format.
func (r *Registry) ServeHTTP(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	_ = r.WritePrometheus(w)
}
