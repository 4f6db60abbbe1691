package mmt

import (
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"time"

	"mmt/internal/trace"
)

// debugServer is the read-only HTTP introspection endpoint started by
// WithDebugServer. Its determinism contract: every handler renders a
// copied snapshot of the trace sink, so serving never blocks the
// simulation, never mutates it, and never charges simulated cycles — the
// simulated timeline is identical with and without the server attached.
type debugServer struct {
	ln   net.Listener
	srv  *http.Server
	done chan struct{}
}

func startDebugServer(addr string, sink *trace.Sink) (*debugServer, error) {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/mmt/hist", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		sink.WriteHistJSON(w)
	})
	mux.HandleFunc("/debug/mmt/events", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/jsonl")
		sink.WriteEventsJSONL(w)
	})
	mux.HandleFunc("/debug/mmt/summary", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		w.Write([]byte(sink.Summary()))
		fmt.Fprintf(w, "security events: %d recorded, %d dropped by the ring bound\n",
			len(sink.SecEvents())+int(sink.EventsDropped()), sink.EventsDropped())
	})
	mux.HandleFunc("/debug/mmt/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/openmetrics-text; version=1.0.0; charset=utf-8")
		sink.WriteOpenMetrics(w)
	})
	mux.HandleFunc("/debug/mmt/series", func(w http.ResponseWriter, r *http.Request) {
		if _, ok := sink.SeriesConfigured(); !ok {
			http.Error(w, "series sampling not enabled (WithSampling)", http.StatusNotFound)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		sink.WriteSeriesJSON(w)
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)

	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	d := &debugServer{
		ln:   ln,
		srv:  &http.Server{Handler: mux, ReadHeaderTimeout: 5 * time.Second},
		done: make(chan struct{}),
	}
	go func() {
		defer close(d.done)
		d.srv.Serve(ln) // returns ErrServerClosed on close
	}()
	return d, nil
}

func (d *debugServer) addr() string { return d.ln.Addr().String() }

func (d *debugServer) close() error {
	err := d.srv.Close()
	<-d.done
	return err
}
