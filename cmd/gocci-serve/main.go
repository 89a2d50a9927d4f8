// Command gocci-serve is the resident patch-serving daemon: it loads a
// corpus session (root directory + campaign of compiled .cocci patches +
// optional disk cache) and serves semantic patching over an HTTP/JSON API,
// keeping compiled patterns, the scan-word index, content hashes, and
// recently-used parse trees warm in memory between requests. A re-run
// after editing 3 files re-parses exactly 3 files.
//
// Usage:
//
//	gocci-serve --root path/to/tree [options] patch.cocci [more.cocci ...]
//
// Endpoints (see docs/serve.md for the full reference):
//
//	GET  /healthz                       liveness
//	GET  /metrics                       Prometheus exposition (counters + latency histograms)
//	GET  /v1/sessions                   session list with stats
//	GET  /v1/sessions/{id}/stats        one session's stats
//	GET  /v1/sessions/{id}/trace        last sweep's Chrome trace-event JSON
//	POST /v1/sessions/{id}/run          full-corpus sweep, streamed NDJSON
//	POST /v1/sessions/{id}/invalidate   drop resident state
//	POST /v1/apply                      one-shot file or snippet patching
//
// --pprof additionally mounts Go's net/http/pprof handlers under /debug/pprof/
// on the same listener for CPU and heap profiling of the daemon itself.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	_ "net/http/pprof" // registers /debug/pprof/ on DefaultServeMux; exposed only with --pprof
	"os"
	"os/signal"
	"runtime"
	"strings"
	"syscall"
	"time"

	sempatch "repro"
	"repro/internal/buildinfo"
)

func main() {
	showVersion := buildinfo.Setup(flag.CommandLine, "gocci-serve")
	addr := flag.String("addr", "127.0.0.1:8077", "listen address")
	root := flag.String("root", "", "corpus directory the session serves (required)")
	session := flag.String("session", "default", "session id in URLs")
	spFile := flag.String("sp-file", "", "semantic patch file (.cocci); may also be given as positional arguments")
	cxx := flag.Int("cxx", 0, "enable C++ mode with the given standard (11, 17, 23); 0 = C")
	cuda := flag.Bool("cuda", false, "enable CUDA <<< >>> kernel launches")
	workers := flag.Int("j", runtime.GOMAXPROCS(0), "worker-pool size per request")
	noPrefilter := flag.Bool("no-prefilter", false, "parse every file, even those a patch provably cannot touch")
	noFnCache := flag.Bool("no-fn-cache", false, "disable function-granular matching and caching; eligible patches match whole files instead of per-function segments")
	verify := flag.Bool("verify", false, "run the post-transform safety checker on every changed file; unsafe edits are demoted to warnings surfaced over the API and /metrics")
	cacheDir := flag.String("cache-dir", "", "disk cache behind the in-memory layer; a restarted daemon comes back warm")
	watch := flag.Duration("watch", 2*time.Second, "poll-watcher interval for change-driven invalidation; 0 disables")
	astCache := flag.Int("ast-cache", 256, "resident parse-tree LRU size (trees)")
	memCache := flag.Int("mem-cache", 0, "in-memory scan/result cache entry bound (0 = default 65536)")
	pprofFlag := flag.Bool("pprof", false, "mount net/http/pprof under /debug/pprof/ on the same listener")
	var defines defineList
	flag.Var(&defines, "D", "define a virtual dependency name (repeatable)")
	flag.Parse()
	buildinfo.HandleVersion("gocci-serve", showVersion)

	var patchFiles []string
	if *spFile != "" {
		patchFiles = append(patchFiles, *spFile)
	}
	for _, a := range flag.Args() {
		if !strings.HasSuffix(a, ".cocci") {
			fmt.Fprintf(os.Stderr, "gocci-serve: unexpected argument %q (only .cocci patches are positional)\n", a)
			os.Exit(2)
		}
		patchFiles = append(patchFiles, a)
	}
	if *root == "" || len(patchFiles) == 0 {
		fmt.Fprintln(os.Stderr, "usage: gocci-serve --root DIR [options] patch.cocci [more.cocci ...]")
		flag.PrintDefaults()
		os.Exit(2)
	}

	patches := make([]*sempatch.Patch, len(patchFiles))
	for i, pf := range patchFiles {
		p, err := sempatch.ParsePatchFile(pf)
		if err != nil {
			fatal(err)
		}
		patches[i] = p
	}
	opts := sempatch.Options{
		CPlusPlus: *cxx > 0, Std: *cxx, CUDA: *cuda,
		Defines: defines, Workers: *workers, NoPrefilter: *noPrefilter, NoFuncCache: *noFnCache,
		Verify: *verify,
	}

	srv := sempatch.NewServer(opts)
	sessOpts := opts
	sessOpts.CacheDir = *cacheDir
	sess, err := srv.AddSession(sempatch.SessionConfig{
		ID:              *session,
		Root:            *root,
		Patches:         patches,
		Options:         sessOpts,
		ASTCacheSize:    *astCache,
		MemCacheEntries: *memCache,
		WatchInterval:   *watch,
	})
	if err != nil {
		fatal(err)
	}

	// Bind before announcing, so --addr with port 0 reports the real port
	// and a bind failure is a clean exit 1 rather than a late surprise.
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		srv.Close()
		fatal(err)
	}
	handler := srv.Handler()
	if *pprofFlag {
		// An outer mux keeps the API handler untouched: pprof's handlers
		// register on http.DefaultServeMux at import, and the outer mux
		// routes /debug/pprof/ there while everything else stays with the
		// API. Off by default — profiling endpoints are not for open ports.
		outer := http.NewServeMux()
		outer.Handle("/debug/pprof/", http.DefaultServeMux)
		outer.Handle("/", handler)
		handler = outer
	}
	httpSrv := &http.Server{Handler: handler}
	errc := make(chan error, 1)
	go func() { errc <- httpSrv.Serve(ln) }()
	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)

	fmt.Fprintf(os.Stderr, "gocci-serve %s: session %q serving %s (%d patches) on http://%s\n",
		buildinfo.Version(), sess.ID(), sess.Root(), len(patches), ln.Addr())

	select {
	case err := <-errc:
		// Serve only returns on failure.
		srv.Close()
		fatal(err)
	case sig := <-sigc:
		fmt.Fprintf(os.Stderr, "gocci-serve: %v, shutting down\n", sig)
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if err := httpSrv.Shutdown(ctx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
			fmt.Fprintln(os.Stderr, "gocci-serve:", err)
		}
		srv.Close()
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "gocci-serve:", err)
	os.Exit(1)
}

// defineList collects repeatable -D flags.
type defineList []string

func (d *defineList) String() string { return fmt.Sprint([]string(*d)) }

func (d *defineList) Set(v string) error {
	*d = append(*d, v)
	return nil
}
