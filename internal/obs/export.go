package obs

import (
	"context"
	"encoding/json"
	"expvar"
	"fmt"
	"io"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
)

// WritePrometheus renders the registry tree in the Prometheus text
// exposition format (version 0.0.4): one HELP/TYPE header per family,
// histograms expanded into cumulative _bucket/_sum/_count series.
func (r *Registry) WritePrometheus(w io.Writer) error {
	samples := r.Gather()
	lastName := ""
	for i := range samples {
		s := &samples[i]
		if s.Name != lastName {
			lastName = s.Name
			if s.Help != "" {
				if _, err := fmt.Fprintf(w, "# HELP %s %s\n", s.Name, s.Help); err != nil {
					return err
				}
			}
			if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", s.Name, s.Kind); err != nil {
				return err
			}
		}
		if err := writeSample(w, s); err != nil {
			return err
		}
	}
	return nil
}

// writeSample renders one time series.
func writeSample(w io.Writer, s *Sample) error {
	if s.Hist == nil {
		_, err := fmt.Fprintf(w, "%s%s %d\n", s.Name, braced(labelString(s.Labels)), s.Value)
		return err
	}
	ls := labelString(s.Labels)
	sep := ""
	if ls != "" {
		sep = ","
	}
	cum := int64(0)
	for i, b := range s.Hist.Bounds {
		cum += s.Hist.Counts[i]
		if _, err := fmt.Fprintf(w, "%s_bucket{%s%sle=\"%d\"} %d\n", s.Name, ls, sep, b, cum); err != nil {
			return err
		}
	}
	cum += s.Hist.Counts[len(s.Hist.Counts)-1]
	if _, err := fmt.Fprintf(w, "%s_bucket{%s%sle=\"+Inf\"} %d\n", s.Name, ls, sep, cum); err != nil {
		return err
	}
	if _, err := fmt.Fprintf(w, "%s_sum%s %d\n", s.Name, braced(ls), s.Hist.Sum); err != nil {
		return err
	}
	_, err := fmt.Fprintf(w, "%s_count%s %d\n", s.Name, braced(ls), s.Hist.Count)
	return err
}

// braced wraps a non-empty label string in braces.
func braced(ls string) string {
	if ls == "" {
		return ""
	}
	return "{" + ls + "}"
}

// ExpvarMap flattens the registry tree into an expvar-friendly map:
// series keyed by name{labels}, histograms as snapshot objects. This is
// the JSON twin of the Prometheus text format, served on /debug/vars.
func (r *Registry) ExpvarMap() map[string]any {
	m := make(map[string]any)
	for _, s := range r.Gather() {
		k := s.Name + braced(labelString(s.Labels))
		if s.Hist != nil {
			m[k] = *s.Hist
		} else {
			m[k] = s.Value
		}
	}
	return m
}

// Handler serves the registry as Prometheus text.
func Handler(r *Registry) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = r.WritePrometheus(w)
	})
}

// expvarTarget is the registry the published expvar Func snapshots; the
// expvar namespace is process-global, so the last served registry wins.
var (
	expvarTarget atomic.Pointer[Registry]
	expvarOnce   sync.Once
)

// publishExpvar exposes the registry under the process-global expvar name
// "cobra_metrics" (published once; later calls rebind the target).
func publishExpvar(r *Registry) {
	expvarTarget.Store(r)
	expvarOnce.Do(func() {
		expvar.Publish("cobra_metrics", expvar.Func(func() any {
			if t := expvarTarget.Load(); t != nil {
				return t.ExpvarMap()
			}
			return nil
		}))
	})
}

// NewMux builds the observability endpoint set for a registry:
//
//	/metrics     Prometheus text exposition
//	/debug/vars  expvar JSON (standard library vars + cobra_metrics)
//	/debug/trace recent spans from the registry tree's trace rings
func NewMux(r *Registry) *http.ServeMux {
	publishExpvar(r)
	mux := http.NewServeMux()
	mux.Handle("/metrics", Handler(r))
	mux.Handle("/debug/vars", expvar.Handler())
	mux.HandleFunc("/debug/trace", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json; charset=utf-8")
		recs := r.TraceRecords()
		if recs == nil {
			recs = []SpanRecord{} // always a JSON array, even with tracing off
		}
		_ = json.NewEncoder(w).Encode(recs)
	})
	return mux
}

// Server is a running observability HTTP listener. Stop it with
// Shutdown (graceful: in-flight scrapes finish) or Close (abrupt); Done
// reports when the serving goroutine has fully exited, so a daemon's
// drain path can wait for the metrics endpoint the way it waits for its
// own sessions.
type Server struct {
	// URL is the base address, e.g. "http://127.0.0.1:9090".
	URL  string
	srv  *http.Server
	done chan struct{}
}

// Serve starts the observability endpoints on addr (":9090",
// "127.0.0.1:0", …) in a background goroutine and returns the bound
// server; callers print s.URL so operators and scrape jobs can find a
// randomly assigned port.
func Serve(addr string, r *Registry) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	s := &Server{
		URL:  "http://" + ln.Addr().String(),
		srv:  &http.Server{Handler: NewMux(r)},
		done: make(chan struct{}),
	}
	go func() {
		defer close(s.done)
		_ = s.srv.Serve(ln)
	}()
	return s, nil
}

// Shutdown gracefully stops the server: the listener closes, in-flight
// scrapes run to completion, and the serving goroutine exits — bounded
// by ctx like net/http's Shutdown. This is the drain path cobrad takes
// on SIGTERM, so a scrape racing the shutdown gets its complete response
// instead of a reset connection.
func (s *Server) Shutdown(ctx context.Context) error {
	err := s.srv.Shutdown(ctx)
	select {
	case <-s.done:
	case <-ctx.Done():
		if err == nil {
			err = ctx.Err()
		}
	}
	return err
}

// Done is closed when the serving goroutine has exited.
func (s *Server) Done() <-chan struct{} { return s.done }

// Close stops the listener abruptly, dropping in-flight scrapes; prefer
// Shutdown on orderly exits.
func (s *Server) Close() error { return s.srv.Close() }
