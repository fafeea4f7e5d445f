// Command earthplus-serve runs the Earth+ HTTP serving layer: the
// container codec behind /v1/encode and /v1/decode plus deployment
// introspection at /v1/info, operational counters at /metrics and a
// liveness probe at /healthz — with a content-addressed result cache
// (optionally persisted across restarts), per-client token-bucket rate
// limiting, request coalescing, a bounded worker pool, and graceful
// shutdown on SIGINT/SIGTERM.
//
// Usage:
//
//	earthplus-serve -addr :8080
//	earthplus-serve -addr :8080 -concurrency 16 -bpp 1.0
//	earthplus-serve -cachedir /var/cache/earthplus -cachedisk 4294967296 \
//	    -ratelimit 50 -rateburst 100 -clientheader X-Client-Id
//
//	curl -X POST --data-binary @samples.raw \
//	    'localhost:8080/v1/encode?width=192&height=192&bands=4&lossless=1' > frame.epc
//	curl -X POST --data-binary @frame.epc 'localhost:8080/v1/decode' > samples.raw
//	curl localhost:8080/metrics
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"earthplus/internal/cli"
	"earthplus/pkg/earthplus"
	"earthplus/pkg/earthplus/serve"
)

const cmdName = "earthplus-serve"

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	concurrency := flag.Int("concurrency", 0, "max concurrent encode/decode requests (0 = GOMAXPROCS)")
	queueWait := flag.Duration("queuewait", 10*time.Second, "how long a request may queue for a worker slot")
	maxBody := flag.Int64("maxbody", 256<<20, "request body size limit in bytes")
	bpp := flag.Float64("bpp", 1.0, "default encode budget in bits per pixel per band")
	shutdownWait := flag.Duration("shutdownwait", 10*time.Second, "graceful shutdown drain window")
	reqTimeout := flag.Duration("reqtimeout", 30*time.Second,
		"per-request processing deadline; overruns get 503 with Retry-After (negative = no deadline)")
	cacheMem := flag.Int64("cachemem", 0,
		"in-memory result-cache budget in bytes (0 = 64 MiB, negative = disable the memory tier)")
	cacheDir := flag.String("cachedir", "",
		"persistent result-cache directory; cached responses survive restarts (empty = memory-only)")
	cacheDisk := flag.Int64("cachedisk", 0,
		"on-disk result-cache budget in bytes (0 = 1 GiB; needs -cachedir)")
	rateLimit := flag.Float64("ratelimit", 0,
		"per-client token-bucket refill in requests/s; a dry bucket gets 429 with escalating Retry-After (0 = unlimited)")
	rateBurst := flag.Int("rateburst", 0,
		"per-client bucket capacity in requests (0 = one second's refill, minimum 1)")
	clientHeader := flag.String("clientheader", "",
		"request header carrying the rate-limit client identity, for deployments behind a trusted proxy (empty = remote IP)")
	flag.Parse()

	cfg := serve.Config{
		MaxConcurrent:  *concurrency,
		QueueWait:      *queueWait,
		MaxBodyBytes:   *maxBody,
		DefaultBPP:     *bpp,
		RequestTimeout: *reqTimeout,
		CacheMemBytes:  *cacheMem,
		CacheDir:       *cacheDir,
		CacheDiskBytes: *cacheDisk,
		RatePerSec:     *rateLimit,
		RateBurst:      *rateBurst,
		ClientHeader:   *clientHeader,
	}
	cli.MustValidate(cmdName, cfg)
	srv := serve.New(cfg)
	httpSrv := &http.Server{
		Addr:              *addr,
		Handler:           srv.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errCh := make(chan error, 1)
	go func() { errCh <- httpSrv.ListenAndServe() }()
	fmt.Printf("%s: %s API %s listening on %s (systems: %v)\n",
		cmdName, earthplus.Version, earthplus.APIVersion, *addr, earthplus.Systems())

	select {
	case err := <-errCh:
		if err != nil && !errors.Is(err, http.ErrServerClosed) {
			cli.Fail(cmdName, "%v", err)
		}
	case <-ctx.Done():
		stop()
		fmt.Printf("%s: shutting down (draining up to %v)\n", cmdName, *shutdownWait)
		shutdownCtx, cancel := context.WithTimeout(context.Background(), *shutdownWait)
		defer cancel()
		if err := httpSrv.Shutdown(shutdownCtx); err != nil {
			cli.Fail(cmdName, "shutdown: %v", err)
		}
	}
}
