package telemetry

import (
	"expvar"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"sort"
)

// DebugServer is the live-introspection endpoint long sweeps expose
// via -http: /debug/vars (expvar JSON, including the caller's
// published snapshot functions) and the standard /debug/pprof suite.
type DebugServer struct {
	srv  *http.Server
	addr string
	vars map[string]func() any
}

// NewDebugServer builds (but does not start) a debug server. vars maps
// expvar names to snapshot functions evaluated per request — the
// runner publishes its live sweep snapshot here. The handlers are
// mounted on a private mux, not http.DefaultServeMux, so tests and
// multiple servers never collide.
func NewDebugServer(addr string, vars map[string]func() any) *DebugServer {
	d := &DebugServer{addr: addr, vars: vars}
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/vars", d.serveVars)
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	// "/{$}" matches the root only, so unknown paths are 404s.
	mux.HandleFunc("/{$}", func(w http.ResponseWriter, _ *http.Request) {
		fmt.Fprintln(w, "nvmstar debug server: /debug/vars, /debug/pprof/")
	})
	d.srv = &http.Server{Handler: mux}
	return d
}

// serveVars renders expvar-format JSON: the process-global expvar set
// (memstats, cmdline) merged with the server's own snapshot vars.
func (d *DebugServer) serveVars(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	fmt.Fprintf(w, "{\n")
	first := true
	writeVar := func(name, value string) {
		if !first {
			fmt.Fprintf(w, ",\n")
		}
		first = false
		fmt.Fprintf(w, "%q: %s", name, value)
	}
	names := make([]string, 0, len(d.vars))
	for name := range d.vars { //detlint:ok names are sorted below
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		v := expvar.Func(d.vars[name])
		writeVar(name, v.String())
	}
	expvar.Do(func(kv expvar.KeyValue) {
		writeVar(kv.Key, kv.Value.String())
	})
	fmt.Fprintf(w, "\n}\n")
}

// Start begins serving in a background goroutine and returns the bound
// address (useful with ":0"). The server lives until the process
// exits; sweeps are the process lifetime, so there is no Stop.
func (d *DebugServer) Start() (string, error) {
	ln, err := net.Listen("tcp", d.addr)
	if err != nil {
		return "", fmt.Errorf("telemetry: debug server: %w", err)
	}
	go func() {
		// http.Server.Serve returns ErrServerClosed on shutdown and a
		// real error otherwise; the process is exiting either way.
		_ = d.srv.Serve(ln)
	}()
	return ln.Addr().String(), nil
}
