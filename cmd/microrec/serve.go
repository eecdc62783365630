package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"math"
	"net/http"
	"net/http/pprof"
	"os"
	"strconv"
	"time"

	"microrec"
)

// predictRequest is the JSON body of POST /predict: per-table lookup indices.
type predictRequest struct {
	// Indices[t] lists the row indices for table t, in model order.
	Indices microrec.Query `json:"indices"`
}

type predictResponse struct {
	CTR float64 `json:"ctr"`
	// WallTimeUS is the observed submit-to-response serving latency.
	WallTimeUS float64 `json:"wall_time_us"`
	// BatchSize is the size of the micro-batch that served this query.
	BatchSize int `json:"batch_size"`
}

type modelInfoResponse struct {
	Name       string `json:"name"`
	Tables     int    `json:"tables"`
	FeatureLen int    `json:"feature_len"`
	Precision  int    `json:"precision_bits"`
}

// serveTarget is the serving surface the HTTP API fronts: a single batched
// *microrec.Server, or a *microrec.Router spreading requests over N server
// replicas. Both expose the same predict/stats/trace/metrics seam, so the
// mux never cares which topology is behind it.
type serveTarget interface {
	Submit(ctx context.Context, q microrec.Query) (microrec.ServeResult, error)
	RetryAfter() time.Duration
	Stats() microrec.ServerStats
	Trace(last int, since time.Time) []microrec.TraceSpan
	WriteMetrics(w io.Writer) error
}

var (
	_ serveTarget = (*microrec.Server)(nil)
	_ serveTarget = (*microrec.Router)(nil)
)

// newServeMux builds the HTTP API around an engine and its serving target
// (split out for tests). Requests to /predict are coalesced by srv into
// micro-batches; /stats exposes the target's rolling serving statistics
// (with a router section when srv is a replicated tier), /metrics the same
// telemetry in Prometheus text format, and /trace the flight recorder's
// recent spans as a chrome://tracing JSON document (replica-tagged when
// routed). When withPprof is set the net/http/pprof profiling handlers are
// mounted under /debug/pprof/. In routed mode eng is the first replica's
// engine, used only for /model introspection — replicas are bit-identical
// by construction.
func newServeMux(eng *microrec.Engine, srv serveTarget, withPprof bool) *http.ServeMux {
	mux := http.NewServeMux()
	spec := eng.Spec()
	mux.HandleFunc("/predict", func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			http.Error(w, "POST only", http.StatusMethodNotAllowed)
			return
		}
		// The body decodes in place into a query laid out for the model:
		// encoding/json appends into a slice's spare capacity by decoding
		// into the element already there, so each table's indices land in
		// its window of the query's one array. The query starts at length 0,
		// so a body without indices has no tables; one of another shape
		// outgrows or shortens the windows. Submit rejects both by shape.
		req := predictRequest{Indices: microrec.NewQuery(spec)[:0]}
		// The body gets as long as the header had, and is read to its end
		// under that deadline: a reply sent with part of the body unread
		// first discards the rest, with no bound of its own. On an error the
		// deadline stays armed, so that discard ends at it.
		rc := http.NewResponseController(w)
		if hs, ok := r.Context().Value(http.ServerContextKey).(*http.Server); ok && hs.ReadHeaderTimeout > 0 {
			// Errors only where there is no connection (a test recorder).
			_ = rc.SetReadDeadline(time.Now().Add(hs.ReadHeaderTimeout))
		}
		body := http.MaxBytesReader(w, r.Body, maxPredictBody)
		err := json.NewDecoder(body).Decode(&req)
		if err == nil {
			_, err = io.Copy(io.Discard, body)
		}
		if err != nil {
			var tooLarge *http.MaxBytesError
			switch {
			case errors.As(err, &tooLarge):
				http.Error(w, fmt.Sprintf("request body over %d bytes", maxPredictBody), http.StatusRequestEntityTooLarge)
			case errors.Is(err, os.ErrDeadlineExceeded):
				http.Error(w, "request body not received in time", http.StatusRequestTimeout)
			default:
				http.Error(w, "bad request: "+err.Error(), http.StatusBadRequest)
			}
			return
		}
		// Lift the deadline before serving: once the body is done net/http
		// reads the connection in the background, and the deadline firing
		// there would cancel the request's context mid-batch. (Errors as
		// above.)
		_ = rc.SetReadDeadline(time.Time{})
		res, err := srv.Submit(r.Context(), req.Indices)
		if err != nil {
			switch {
			case errors.Is(err, microrec.ErrInvalidQuery):
				http.Error(w, err.Error(), http.StatusBadRequest)
			case errors.Is(err, microrec.ErrOverloaded):
				// Load shed: tell the client when a queue slot should free
				// (the predicted steady-state batch interval,
				// rounded up to the header's whole-second granularity).
				retry := int(math.Ceil(srv.RetryAfter().Seconds()))
				if retry < 1 {
					retry = 1
				}
				w.Header().Set("Retry-After", strconv.Itoa(retry))
				http.Error(w, "overloaded, retry later", http.StatusTooManyRequests)
			case errors.Is(err, microrec.ErrExpired):
				http.Error(w, "deadline expired before service", http.StatusGatewayTimeout)
			case errors.Is(err, microrec.ErrServerClosed):
				http.Error(w, "server closed", http.StatusServiceUnavailable)
			case errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded):
				http.Error(w, "request cancelled", http.StatusServiceUnavailable)
			default:
				// Validated queries only fail on engine faults.
				http.Error(w, "inference: "+err.Error(), http.StatusInternalServerError)
			}
			return
		}
		writeJSON(w, predictResponse{
			CTR:        float64(res.CTR),
			WallTimeUS: float64(res.WallTime.Microseconds()),
			BatchSize:  res.BatchSize,
		})
	})
	mux.HandleFunc("/stats", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, srv.Stats())
	})
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		if err := srv.WriteMetrics(w); err != nil {
			log.Printf("serve: metrics: %v", err)
		}
	})
	// GET /trace?last=N&seconds=S — the flight recorder's recent spans as a
	// Chrome trace-event JSON array (open in chrome://tracing or Perfetto).
	// last bounds the span count (0 = the whole ring); seconds keeps only
	// spans that started within the trailing window.
	mux.HandleFunc("/trace", func(w http.ResponseWriter, r *http.Request) {
		q := r.URL.Query()
		last := 0
		if s := q.Get("last"); s != "" {
			n, err := strconv.Atoi(s)
			if err != nil || n < 0 {
				http.Error(w, "bad last: want a non-negative integer", http.StatusBadRequest)
				return
			}
			last = n
		}
		var since time.Time
		if s := q.Get("seconds"); s != "" {
			sec, err := strconv.ParseFloat(s, 64)
			if err != nil || sec <= 0 {
				http.Error(w, "bad seconds: want a positive number", http.StatusBadRequest)
				return
			}
			since = time.Now().Add(-time.Duration(sec * float64(time.Second)))
		}
		w.Header().Set("Content-Type", "application/json")
		events := microrec.SpanTraceEvents(srv.Trace(last, since))
		if err := microrec.WriteTraceEvents(w, events); err != nil {
			log.Printf("serve: trace: %v", err)
		}
	})
	if withPprof {
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}
	mux.HandleFunc("/model", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, modelInfoResponse{
			Name:       spec.Name,
			Tables:     len(spec.Tables),
			FeatureLen: spec.FeatureLen(),
			Precision:  eng.Config().Precision.Bits,
		})
	})
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprintln(w, "ok")
	})
	return mux
}

// maxPredictBody bounds a /predict request body. The large production
// model's query is 98 tables of a few indices each, a few KB of JSON; 1 MiB
// leaves two orders of magnitude for longer lookup lists and still refuses a
// body that would only be parsed to be rejected.
const maxPredictBody = 1 << 20

// readHeaderTimeout bounds how long a connection may take to send its request
// headers, so idle or trickling clients cannot hold connections open forever.
// /predict gives its body the same time again, read off the serving
// http.Server. There is no server-wide ReadTimeout: its deadline would stay
// armed through every handler, and net/http's background read would cancel
// long ones (a /debug/pprof/profile?seconds=N) when it fired.
const readHeaderTimeout = 5 * time.Second

// newHTTPServer wraps the API mux in the server the serve command listens
// with (split out for tests).
func newHTTPServer(addr string, h http.Handler) *http.Server {
	return &http.Server{Addr: addr, Handler: h, ReadHeaderTimeout: readHeaderTimeout}
}

func writeJSON(w http.ResponseWriter, v interface{}) {
	w.Header().Set("Content-Type", "application/json")
	if err := json.NewEncoder(w).Encode(v); err != nil {
		log.Printf("serve: encode: %v", err)
	}
}

func cmdServe(args []string) error {
	fs := newFlagSet("serve")
	addr := fs.String("addr", ":8080", "listen address")
	modelName := fs.String("model", "small", "model: small or large")
	fp32 := fs.Bool("fp32", false, "use the 32-bit datapath")
	batch := fs.Int("batch", 64, "max micro-batch size: a batch is dispatched as soon as the drain can serve it and grows, up to this, only while it cannot")
	pipelineDepth := fs.Int("pipeline-depth", 3, "batches in service: planes in the pipelined drain's ring (>= 2; per-stage occupancy appears in /stats), or workers with -worker-pool (>= 1)")
	workerPool := fs.Bool("worker-pool", false, "run each batch to completion on one of -pipeline-depth workers instead of the staged gather/GEMM pipeline")
	slaBudget := fs.Duration("sla", 0, "tail-latency budget: validates the backlog the server can hold at startup and becomes each request's serving deadline (expired requests are dropped before gather/GEMM; 0 = skip)")
	queue := fs.Int("queue", 0, "submit queue depth (0 = 4x batch); with -shed this bounds every admitted request's queueing delay")
	shed := fs.Bool("shed", false, "fail fast with 429 + Retry-After when the submit queue is full, instead of blocking on backpressure")
	topo := addTopologyFlags(fs)
	traceSample := fs.Int("trace-sample", microrec.DefaultTraceSample, "flight-recorder head sampling: record every Nth request's span (1 = every request, visible at GET /trace)")
	pprofOn := fs.Bool("pprof", false, "mount net/http/pprof profiling handlers under /debug/pprof/")
	applyColdTier := addColdTierFlags(fs, "serve")
	if err := fs.Parse(args); err != nil {
		return err
	}
	// The server treats zero options as "use the default", so reject
	// explicit zeros here instead of silently remapping them.
	if *batch < 1 {
		return fmt.Errorf("serve: -batch must be >= 1 (got %d); use -batch 1 for per-query serving", *batch)
	}
	if *pipelineDepth < 1 {
		return fmt.Errorf("serve: -pipeline-depth must be >= 1 (got %d)", *pipelineDepth)
	}
	if !*workerPool && *pipelineDepth < 2 {
		return fmt.Errorf("serve: -pipeline-depth must be >= 2 (got %d); stage overlap needs two planes, or select -worker-pool", *pipelineDepth)
	}
	if *queue < 0 {
		return fmt.Errorf("serve: -queue must be >= 0 (got %d)", *queue)
	}
	if *slaBudget < 0 {
		return fmt.Errorf("serve: -sla must be >= 0 (got %v)", *slaBudget)
	}
	if err := topo.validate("serve"); err != nil {
		return err
	}
	if *traceSample < 1 {
		return fmt.Errorf("serve: -trace-sample must be >= 1 (got %d); use 1 to trace every request", *traceSample)
	}
	spec, err := specByName(*modelName)
	if err != nil {
		return err
	}
	opts := microrec.EngineOptions{Seed: 1, MaxRowsPerTable: 4096}
	if *fp32 {
		opts.Precision = microrec.Fixed32
	}
	if err := applyColdTier(&opts); err != nil {
		return err
	}
	sopts := microrec.ServerOptions{
		Batching:  microrec.BatchingOptions{MaxBatch: *batch},
		Pipeline:  microrec.PipelineOptions{Depth: *pipelineDepth, WorkerPool: *workerPool},
		Admission: microrec.AdmissionOptions{QueueDepth: *queue, Shed: *shed, SLA: *slaBudget},
		Trace:     microrec.TraceOptions{Sample: *traceSample},
	}
	var (
		target serveTarget
		eng    *microrec.Engine
	)
	if topo.routed() {
		rt, first, err := topo.buildRouter(spec, opts, sopts)
		if err != nil {
			return err
		}
		defer rt.Close()
		target, eng = rt, first
		if *slaBudget > 0 {
			log.Printf("SLA budget %v enforced per request on each replica", *slaBudget)
		}
	} else {
		var err error
		eng, err = microrec.NewEngine(spec, opts)
		if err != nil {
			return err
		}
		defer eng.Close()
		srv, err := microrec.NewServer(eng, sopts)
		if err != nil {
			return err
		}
		defer srv.Close()
		target = srv
		if *slaBudget > 0 {
			if err := srv.ValidateSLA(*slaBudget); err != nil {
				return fmt.Errorf("-batch and -queue violate the SLA budget: %w", err)
			}
			// ValidateSLA has just calibrated without error, and the server
			// keeps that one result, so the bound cannot fail here.
			worst, _ := srv.AdmittedLatencyBound()
			log.Printf("SLA budget %v validated (worst-case admitted %v, from a full batch timed on this host)",
				*slaBudget, worst.Round(time.Microsecond))
		}
	}
	cacheNote := ""
	if tier := tierSnapshot(eng); tier != nil {
		cacheNote += fmt.Sprintf(", tiered store (hot budget %d B of %d B)", tier.HotBudgetBytes, tier.TotalBytes)
	}
	if *shed {
		cacheNote += fmt.Sprintf(", shedding at queue depth %d", target.Stats().Admission.QueueCapacity)
	}
	drainNote := fmt.Sprintf("pipelined drain, %d planes", *pipelineDepth)
	if *workerPool {
		drainNote = fmt.Sprintf("worker pool, %d workers", *pipelineDepth)
	}
	if topo.routed() {
		drainNote += fmt.Sprintf(", %d replicas routed %s", *topo.replicas, topo.policy)
	}
	endpoints := "POST /predict, GET /model, GET /stats, GET /metrics, GET /trace, GET /healthz"
	if *pprofOn {
		endpoints += ", GET /debug/pprof/"
	}
	log.Printf("serving %s (%d-bit) on %s — batch %d, %s%s, tracing 1-in-%d — %s",
		spec.Name, eng.Config().Precision.Bits, *addr, *batch, drainNote, cacheNote, *traceSample, endpoints)
	return newHTTPServer(*addr, newServeMux(eng, target, *pprofOn)).ListenAndServe()
}
