package telemetry

import (
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"

	"tameir/internal/telemetry/trace"
)

// DebugMux builds the handler served behind -debug-addr: the standard
// net/http/pprof endpoints plus live registry expositions.
//
//	/metrics          text exposition (deterministic + scheduling)
//	/metrics.json     JSON snapshot
//	/debug/trace      Chrome trace-event snapshot of the flight
//	                  recorder (404 when no recorder is attached)
//	/debug/pprof/...  profiles
func DebugMux(reg *Registry, rec *trace.Recorder) *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		_ = reg.Snapshot().WriteText(w)
	})
	mux.HandleFunc("/metrics.json", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		_ = reg.Snapshot().WriteJSON(w)
	})
	if rec != nil {
		mux.HandleFunc("/debug/trace", func(w http.ResponseWriter, _ *http.Request) {
			w.Header().Set("Content-Type", "application/json")
			_ = rec.WriteChromeJSON(w)
		})
	}
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// DebugServer is a running -debug-addr listener.
type DebugServer struct {
	Addr string // actual listen address (useful with ":0")

	srv    *http.Server
	served chan struct{} // closed when Serve returns
}

// StartDebugServer listens on addr and serves DebugMux(reg, rec) in
// the background until Close. rec, when non-nil, is served at
// /debug/trace.
func StartDebugServer(addr string, reg *Registry, rec *trace.Recorder) (*DebugServer, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("telemetry: debug server listen %s: %w", addr, err)
	}
	ds := &DebugServer{
		Addr:   ln.Addr().String(),
		srv:    &http.Server{Handler: DebugMux(reg, rec)},
		served: make(chan struct{}),
	}
	go func() {
		defer close(ds.served)
		_ = ds.srv.Serve(ln)
	}()
	return ds, nil
}

// Close stops the listener and waits for it to return. Safe to call
// twice.
func (ds *DebugServer) Close() error {
	err := ds.srv.Close()
	<-ds.served
	return err
}
