package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"sparc64v/internal/analytic"
	"sparc64v/internal/config"
	"sparc64v/internal/gateway"
	"sparc64v/internal/obs"
	"sparc64v/internal/runcache"
	"sparc64v/internal/server"
	"sparc64v/internal/system"
	"sparc64v/internal/workload"
)

// The service-mix workload: an in-process cluster on loopback (a gateway
// in front of two meshed workers, one simulation slot and a memory-tier
// run cache each) driven by one client process over two connections on an
// open-loop, fixed-rate schedule. Every request is timed from when it was
// due, so a stall charges the wait it imposes on later requests. No
// record of real traffic exists: the rates and shares below, except the
// cold rate, are assumptions, and README.md gives the reason for each.
const (
	// hitInsts is the per-CPU trace length of the warmed /v1/run keys.
	hitInsts = 20_000
	// coldInsts is the trace length of a cold sampled /v1/run; it takes
	// about 100 ms on the 2-vCPU host while the fast lane runs.
	coldInsts = 600_000
	// fastEvery spaces the hit and estimate requests on their connection,
	// which a request keeps busy for about 1.4 ms: a third of the lane.
	fastEvery = 4 * time.Millisecond
	// hitShare is the fraction of that connection's requests that are
	// /v1/run hits; the rest are /v1/estimate.
	hitShare = 0.75
	// coldEvery spaces the cold runs on theirs. A cold run takes about
	// 95 ms, so each worker's slot is about a sixth busy: at a third busy
	// (150 ms) a run on a contended host saturated the lane and its cold
	// latency from due rose sevenfold.
	coldEvery = 300 * time.Millisecond
	// opWindows splits the measured interval for the op_ms metrics, which
	// report the median over windows of each window's percentile, so a
	// noisy stretch of host time shorter than half the run does not move
	// them.
	opWindows = 10
	// fastSLO is the latency objective of a hit or an estimate.
	fastSLO = 5 * time.Millisecond
	// recordedColds is how many cold runs --record keeps digests of.
	recordedColds = 48
	// loopWarmup is the unmeasured start of the open loop.
	loopWarmup = time.Second
	// setupReps is how often a run boots a cluster and warms its keys.
	setupReps = 9
)

// hitWorkloads and estimateWorkloads are the UP workloads the mix draws
// from; estimates cover the analytic artifact's calibration set.
var (
	hitWorkloads      = []string{"specint95", "specfp95", "specint2000", "specfp2000"}
	estimateWorkloads = []string{"specint95", "specfp95", "specint2000", "specfp2000", "tpcc", "hpc"}
	// overlays are the configuration variants requests carry ("" = base).
	overlays = []string{
		``,
		`{"CPU":{"IssueWidth":2}}`,
		`{"Mem":{"Prefetch":false}}`,
		`{"BHT":{"Entries":4096,"Ways":2,"AccessCycles":1}}`,
		`{"L1I":{"SizeBytes":65536},"L1D":{"SizeBytes":65536}}`,
		`{"Mem":{"L2":{"SizeBytes":4194304}}}`,
		`{"Mem":{"L2":{"Ways":2}}}`,
		`{"Mem":{"DRAMCycles":300}}`,
	}
)

// cluster is the in-process service: two workers and a gateway, each on
// its own loopback listener.
type cluster struct {
	servers  []*server.Server
	caches   []*runcache.Cache
	regs     []*obs.Registry
	workers  []string // worker base URLs
	gw       *gateway.Gateway
	gwURL    string
	http     []*http.Server
	wg       sync.WaitGroup
	hitKeys  []server.RunRequest
	hitFirst [][]byte // each hit key's first response body
}

func listen() (net.Listener, string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, "", fmt.Errorf("listen on loopback: %w", err)
	}
	return ln, "http://" + ln.Addr().String(), nil
}

func (c *cluster) serve(ln net.Listener, h http.Handler) {
	hs := &http.Server{Handler: h, ReadHeaderTimeout: 10 * time.Second}
	c.http = append(c.http, hs)
	c.wg.Add(1)
	go func() {
		defer c.wg.Done()
		_ = hs.Serve(ln) // returns http.ErrServerClosed on close
	}()
}

// startCluster boots the workers and the gateway.
func startCluster() (*cluster, error) {
	c := &cluster{}
	var gws []gateway.Worker
	for i := range 2 {
		cache, err := runcache.New(runcache.Options{})
		if err != nil {
			c.close()
			return nil, err
		}
		reg := obs.NewRegistry()
		name := fmt.Sprintf("w%d", i)
		srv, err := server.New(server.Config{Cache: cache, Workers: 1, DefaultInsts: hitInsts,
			Registry: reg, NodeID: name})
		if err != nil {
			c.close()
			return nil, err
		}
		ln, url, err := listen()
		if err != nil {
			c.close()
			return nil, err
		}
		c.serve(ln, srv.Handler())
		c.servers, c.caches, c.regs = append(c.servers, srv), append(c.caches, cache), append(c.regs, reg)
		c.workers = append(c.workers, url)
		gws = append(gws, gateway.Worker{Name: name, URL: url})
	}
	for i, srv := range c.servers {
		srv.SetPeers([]string{c.workers[1-i]})
	}
	gw, err := gateway.New(gateway.Config{Workers: gws, DefaultInsts: hitInsts, Registry: obs.NewRegistry()})
	if err != nil {
		c.close()
		return nil, err
	}
	ln, url, err := listen()
	if err != nil {
		c.close()
		return nil, err
	}
	c.serve(ln, gw.Handler())
	c.gw, c.gwURL = gw, url
	return c, nil
}

// close stops every listener and waits for the serving goroutines.
func (c *cluster) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	for _, hs := range c.http {
		_ = hs.Shutdown(ctx) // a slow in-flight request only delays exit
	}
	c.wg.Wait()
}

// newConn returns a client that holds at most one connection.
func newConn() *http.Client {
	return &http.Client{
		Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true},
		Timeout:   30 * time.Second,
	}
}

// post sends one JSON request and returns the status and body.
func post(ctx context.Context, c *http.Client, url string, body []byte) (int, []byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, b, err
}

// runReply is a decoded /v1/run response with the stats kept raw.
type runReply struct {
	Key   string          `json:"key"`
	Cache string          `json:"cache"`
	Stats json.RawMessage `json:"stats"`
}

func hitRequests(seed int64) []server.RunRequest {
	var reqs []server.RunRequest
	for i, o := range overlays[:4] {
		for j, w := range hitWorkloads {
			reqs = append(reqs, server.RunRequest{Workload: w, Insts: hitInsts, CPUs: 1,
				Seed: workloadSeed(seed, uint64(1+i*len(hitWorkloads)+j)), Config: json.RawMessage(o)})
		}
	}
	return reqs
}

// coldRequest is the i-th cold sampled run: a fresh seed every time.
func coldRequest(seed int64, i int) server.RunRequest {
	s := config.DefaultSampling(coldInsts)
	return server.RunRequest{Workload: hitWorkloads[i%len(hitWorkloads)], Insts: coldInsts, CPUs: 1,
		Seed: workloadSeed(seed, uint64(1_000_000+i)), Sampling: &s}
}

// checkRunReply validates a /v1/run body: its stats digest against the
// recorded one (or conservation). It returns the stats and why they are
// wrong ("" when they are right).
func checkRunReply(chk *checker, i int, body []byte, req server.RunRequest) (system.Summary, string) {
	var r runReply
	var s system.Summary
	if err := json.Unmarshal(body, &r); err != nil {
		return s, fmt.Sprintf("undecodable /v1/run body: %v", err)
	}
	if err := json.Unmarshal(r.Stats, &s); err != nil {
		return s, fmt.Sprintf("undecodable stats: %v", err)
	}
	return s, chk.check(i, digest(&s), func() string {
		return conserveSummary(&s, req.Insts, uint64(req.Insts/5), 1, req.Sampling != nil)
	})
}

// warm posts every hit key once through the gateway over two connections
// and keeps each first response; these are the bodies later hits must
// reproduce byte for byte.
func (c *cluster) warm(ctx context.Context, seed int64, chk *checker) error {
	c.hitKeys = hitRequests(seed)
	c.hitFirst = make([][]byte, len(c.hitKeys))
	errs := make([]error, 2)
	var wg sync.WaitGroup
	for w := range 2 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			conn := newConn()
			defer conn.CloseIdleConnections()
			for i := w; i < len(c.hitKeys); i += 2 {
				body, _ := json.Marshal(c.hitKeys[i])
				code, b, err := post(ctx, conn, c.gwURL+"/v1/run", body)
				if err == nil && code != http.StatusOK {
					err = fmt.Errorf("status %d: %s", code, b)
				}
				if err != nil {
					errs[w] = fmt.Errorf("warm key %d: %w", i, err)
					return
				}
				c.hitFirst[i] = b
			}
		}()
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		return err
	}
	for i, b := range c.hitFirst {
		if _, why := checkRunReply(chk, i, b, c.hitKeys[i]); why != "" {
			return fmt.Errorf("warm key %d: %s", i, why)
		}
	}
	return nil
}

// reqClass is the kind of one scheduled request.
type reqClass int

const (
	classHit reqClass = iota
	classEstimate
	classCold
)

func (k reqClass) String() string { return [...]string{"hit", "estimate", "cold"}[k] }

// sample is one completed request.
type sample struct {
	class     reqClass
	due, sent time.Time
	done      time.Time
	ok        bool
	// insts and ff are a cold run's trace length and fast-forwarded
	// instructions; workload is its workload's name.
	insts    int
	ff       float64
	workload string
}

func (s sample) latency() time.Duration { return s.done.Sub(s.due) }

// estimateCase is one /v1/estimate request with its expected body.
type estimateCase struct {
	body []byte
	want []byte
}

func estimateCases() ([]estimateCase, error) {
	cal, err := analytic.Default()
	if err != nil {
		return nil, err
	}
	var cases []estimateCase
	for _, w := range estimateWorkloads {
		prof, _ := workload.ByName(w)
		for _, o := range overlays {
			req := server.EstimateRequest{Workload: w, CPUs: 1, Config: json.RawMessage(o)}
			cfg := config.Base()
			if o != "" {
				if cfg, err = config.OverlayJSON(cfg, bytes.NewReader([]byte(o))); err != nil {
					return nil, err
				}
			}
			est, err := cal.Estimate(cfg.WithCPUs(1), prof.Name)
			if err != nil {
				return nil, fmt.Errorf("estimate %s %s: %w", w, o, err)
			}
			body, _ := json.Marshal(req)
			want, _ := json.Marshal(est)
			cases = append(cases, estimateCase{body, want})
		}
	}
	return cases, nil
}

// mix is the service-mix state shared by the untraced and traced halves.
type mix struct {
	cl        *cluster
	seed      int64
	chk       *checker
	estimates []estimateCase
	nextCold  int
	// inexact counts estimates equal to the in-process one only within
	// rounding.
	inexact atomic.Int64
	// trace, when non-nil, records one span tree per request.
	trace *tracer
}

// request is one scheduled request and the check its response must pass.
type request struct {
	class    reqClass
	path     string
	body     []byte
	workload string
	// check returns why the body is wrong ("" if right) and, for a cold
	// run, how many instructions it fast-forwarded.
	check func([]byte) (string, float64)
}

// openLoop runs both connections' schedules for d and returns every
// completed request; failures are counted in out. One connection carries
// the hits and estimates, the other the cold runs, so a cold run holds
// only its own connection while it simulates.
func (m *mix) openLoop(ctx context.Context, out *outcome, d time.Duration) []sample {
	rng := rand.New(rand.NewSource(workloadSeed(m.seed, 7) + int64(m.nextCold)))
	var fast, cold []request
	for due := time.Duration(0); due < d; due += fastEvery {
		if rng.Float64() < hitShare {
			i := rng.Intn(len(m.cl.hitKeys))
			body, _ := json.Marshal(m.cl.hitKeys[i])
			fast = append(fast, request{classHit, "/v1/run", body, "", func(b []byte) (string, float64) { return m.checkHit(i, b), 0 }})
			continue
		}
		e := m.estimates[rng.Intn(len(m.estimates))]
		fast = append(fast, request{classEstimate, "/v1/estimate", e.body, "", func(b []byte) (string, float64) {
			why, exact := checkEstimate(e, b)
			if !exact && why == "" {
				m.inexact.Add(1)
			}
			return why, 0
		}})
	}
	for due := time.Duration(0); due < d; due += coldEvery {
		i := m.nextCold
		m.nextCold++
		req := coldRequest(m.seed, i)
		body, _ := json.Marshal(req)
		cold = append(cold, request{classCold, "/v1/run", body, req.Workload, func(b []byte) (string, float64) {
			s, why := checkRunReply(m.chk, len(m.cl.hitKeys)+i, b, req)
			if s.Sampling == nil {
				return why, 0
			}
			return why, float64(s.Sampling.FastForwarded)
		}})
	}

	t0 := time.Now().Add(5 * time.Millisecond)
	var mu sync.Mutex
	var samples []sample
	var wg sync.WaitGroup
	for lane, reqs := range [][]request{fast, cold} {
		every := []time.Duration{fastEvery, coldEvery}[lane]
		wg.Add(1)
		go func() {
			defer wg.Done()
			conn := newConn()
			defer conn.CloseIdleConnections()
			for i, r := range reqs {
				due := t0.Add(time.Duration(i) * every)
				if wait := time.Until(due); wait > 0 {
					select {
					case <-time.After(wait):
					case <-ctx.Done():
						return
					}
				}
				s := sample{class: r.class, due: due, sent: time.Now()}
				code, b, err := post(ctx, conn, m.cl.gwURL+r.path, r.body)
				s.done = time.Now()
				why := ""
				switch {
				case err != nil:
					why = err.Error()
				case code != http.StatusOK:
					why = fmt.Sprintf("status %d: %.200s", code, b)
				default:
					why, s.ff = r.check(b)
				}
				s.ok = why == ""
				if r.class == classCold {
					s.insts, s.workload = coldInsts, r.workload
				}
				m.traceRequest(s, fmt.Sprintf("lane%d-%d", lane, i))
				mu.Lock()
				samples = append(samples, s)
				if !s.ok {
					out.fail("%s %s: %s", r.class, r.path, why)
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	out.attempted += len(samples)
	return samples
}

// traceRequest records a request's span tree: the root from due to done,
// the client-side queueing before it was sent, and the HTTP round trip.
func (m *mix) traceRequest(s sample, req string) {
	if m.trace == nil {
		return
	}
	root := m.trace.record("request."+s.class.String(), req, 0, s.due, s.done)
	m.trace.record("client.queue", req, root, s.due, s.sent)
	m.trace.record("http.roundtrip", req, root, s.sent, s.done)
}

// checkHit requires a hit to reproduce its key's first response: the same
// key and byte-identical stats, served from a cache tier.
func (m *mix) checkHit(i int, b []byte) string {
	var got, first runReply
	if err := json.Unmarshal(b, &got); err != nil {
		return fmt.Sprintf("undecodable hit body: %v", err)
	}
	if err := json.Unmarshal(m.cl.hitFirst[i], &first); err != nil {
		return fmt.Sprintf("undecodable first body: %v", err)
	}
	switch {
	case got.Key != first.Key:
		return fmt.Sprintf("hit key %s != first %s", got.Key, first.Key)
	case !bytes.Equal(got.Stats, first.Stats):
		return fmt.Sprintf("hit stats for key %s differ from the first response", got.Key)
	case got.Cache == "miss":
		return fmt.Sprintf("warmed key %s re-simulated", got.Key)
	}
	return ""
}

// checkEstimate requires the served estimate to equal the in-process one:
// every name and integer exactly, every floating-point field to a relative
// 1e-9. Estimates are not bit-reproducible (analytic's exec term sums a
// map in iteration order), so a last-bit difference is counted, not
// failed: exact reports whether the bytes matched.
func checkEstimate(e estimateCase, b []byte) (why string, exact bool) {
	var got, want analytic.Estimate
	if err := json.Unmarshal(b, &got); err != nil {
		return fmt.Sprintf("undecodable estimate: %v", err), false
	}
	if err := json.Unmarshal(e.want, &want); err != nil {
		return fmt.Sprintf("undecodable expected estimate: %v", err), false
	}
	gb, _ := json.Marshal(got)
	if bytes.Equal(gb, e.want) {
		return "", true
	}
	near := func(a, b float64) bool { return math.Abs(a-b) <= 1e-9*math.Max(math.Abs(a), math.Abs(b)) }
	ok := got.Workload == want.Workload && got.Config == want.Config && got.ModelVersion == want.ModelVersion &&
		got.CalibrationInsts == want.CalibrationInsts && got.CalibrationSeed == want.CalibrationSeed &&
		near(got.CPI, want.CPI) && near(got.IPC, want.IPC) && near(got.CPILow, want.CPILow) &&
		near(got.CPIHigh, want.CPIHigh) && near(got.MaxRelErr, want.MaxRelErr) && len(got.Terms) == len(want.Terms)
	for k, v := range want.Terms {
		w, found := got.Terms[k]
		ok = ok && found && near(v, w)
	}
	if !ok {
		return fmt.Sprintf("estimate %s differs from the in-process one", e.body), false
	}
	return "", false
}

func runServiceMix(ctx context.Context, rc runConfig) (*outcome, error) {
	out := &outcome{}
	chk, err := newChecker("service-mix", rc.seed, fmt.Sprintf("hits=%d@%d;cold=%d", len(hitRequests(0)), hitInsts, coldInsts))
	if err != nil {
		return nil, err
	}
	chk.keep = len(hitRequests(0)) + recordedColds
	est, err := estimateCases()
	if err != nil {
		return nil, err
	}
	// Boot and warm a fresh cluster setupReps times; measure on the last.
	var setups []float64
	var cl *cluster
	for k := range setupReps {
		t0 := time.Now()
		c, err := startCluster()
		if err == nil {
			err = c.warm(ctx, rc.seed, chk)
		}
		if err != nil {
			if c != nil {
				c.close()
			}
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
		if k < setupReps-1 {
			c.close()
		} else {
			cl = c
		}
	}
	defer cl.close()
	out.attempted += len(cl.hitKeys)

	m := &mix{cl: cl, seed: rc.seed, chk: chk, estimates: est}
	// An unmeasured second of the same schedule first: connections,
	// goroutines and the heap reach steady state. Its responses are still
	// checked.
	m.openLoop(ctx, out, loopWarmup)
	rt0 := readRuntime()
	samples := m.openLoop(ctx, out, rc.dur())
	rt1 := readRuntime()
	if rc.record {
		if err := chk.record(); err != nil {
			return nil, err
		}
	}
	if !rc.trace {
		addServiceE2E(out, samples, setups)
		fmt.Printf("# estimates equal to the in-process one only within rounding: %d\n", m.inexact.Load())
		return out, nil
	}
	m.trace = newTracer()
	out.spans = m.trace
	traced := m.openLoop(ctx, out, rc.dur())
	addServiceLayers(out, cl, samples, traced, rt0, rt1)
	if err := systemProbe(ctx, out, m.trace, cl.hitKeys); err != nil {
		return nil, err
	}
	if err := probeLayers(ctx, out, rc, cl); err != nil {
		return nil, err
	}
	return out, nil
}

// classLatencies returns the latencies (ms, from due) of one class, or of
// every class when class < 0, counting only successful requests.
func classLatencies(samples []sample, class reqClass) []float64 {
	var xs []float64
	for _, s := range samples {
		if s.ok && (class < 0 || s.class == class) {
			xs = append(xs, ms(s.latency()))
		}
	}
	return xs
}

// windowed splits the successful samples into opWindows equal spans of
// due time and returns the median over spans of each span's q-quantile
// latency (ms).
func windowed(samples []sample, q float64) float64 {
	if len(samples) == 0 {
		return 0
	}
	first, last := samples[0].due, samples[0].due
	for _, s := range samples {
		if s.due.Before(first) {
			first = s.due
		}
		if s.due.After(last) {
			last = s.due
		}
	}
	width := last.Sub(first)/opWindows + 1
	wins := make([][]float64, opWindows)
	for _, s := range samples {
		if s.ok {
			k := int(s.due.Sub(first) / width)
			wins[k] = append(wins[k], ms(s.latency()))
		}
	}
	var qs []float64
	for _, w := range wins {
		if len(w) > 0 {
			qs = append(qs, quantile(w, q))
		}
	}
	return median(qs)
}

// sloShare is the share of requests that succeeded within their class's
// latency objective.
func sloShare(samples []sample) float64 {
	var n int
	for _, s := range samples {
		lim := fastSLO
		if s.class == classCold {
			lim = coldSLO
		}
		if s.ok && s.latency() <= lim {
			n++
		}
	}
	return float64(n) / float64(max(len(samples), 1))
}

func addServiceE2E(out *outcome, samples []sample, setups []float64) {
	// sim_kips is the cold runs' trace length over the median round trip
	// of each cold workload, summed over the workloads: a median, so that
	// a few runs stalled by the host do not move it.
	trips := map[string][]float64{}
	for _, s := range samples {
		if s.ok && s.class == classCold {
			trips[s.workload] = append(trips[s.workload], s.done.Sub(s.sent).Seconds())
		}
	}
	var insts, secs float64
	for _, w := range hitWorkloads {
		if len(trips[w]) > 0 {
			insts += coldInsts
			secs += median(trips[w])
		}
	}
	kips := 0.0
	if secs > 0 {
		kips = insts / secs / 1e3
	}
	cold := classLatencies(samples, classCold)
	all := classLatencies(samples, -1)
	out.add("sim_kips", kips, "kinst/s", fmt.Sprintf("host; cold sampled runs, insts advanced per second of median round trip, per workload (n=%d)", len(cold)))
	out.add("run_cold_ms_p50", median(cold), "ms", fmt.Sprintf("host; from due, n=%d", len(cold)))
	fmt.Printf("# run_cold_ms_p90 %.4f ms (from due, n=%d)\n", quantile(cold, 0.9), len(cold))
	n := fmt.Sprintf("host; all requests from due, median of %d windows' percentile, n=%d", opWindows, len(all))
	out.add("op_ms_p50", windowed(samples, 0.5), "ms", n)
	fmt.Printf("# op_ms_p75 %.4f ms (median of %d windows' p75)\n", windowed(samples, 0.75), opWindows)
	out.add("ok_ratio", float64(out.attempted-out.failed)/float64(out.attempted), "ratio",
		fmt.Sprintf("%d of %d ok", out.attempted-out.failed, out.attempted))
	out.add("setup_s", median(setups), "s", fmt.Sprintf("host; median of %d cluster boots + key warm-ups", len(setups)))
	// The per-class figures the end-to-end set folds together.
	for _, k := range []reqClass{classHit, classEstimate} {
		xs := classLatencies(samples, k)
		fmt.Printf("# %s: p50 %.3f ms, p99 %.3f ms (n=%d)\n", k, median(xs), quantile(xs, 0.99), len(xs))
	}
	fmt.Printf("# within SLO (%v hit/estimate, %v cold; failures miss): %.4f\n", fastSLO, coldSLO, sloShare(samples))
}

// systemProbe splits the warmed keys' runs into their simulator layers,
// as the sweeps' traced half does, and copies their simulated counters.
func systemProbe(ctx context.Context, out *outcome, tr *tracer, keys []server.RunRequest) error {
	pts := make([]point, len(keys))
	for i, req := range keys {
		rr, err := server.ResolveRun(config.Base(), hitInsts, req)
		if err != nil {
			return err
		}
		pts[i] = point{cfg: rr.Model.Config(), prof: rr.Profile, insts: rr.Opt.Insts, seed: rr.Opt.Seed}
	}
	models, err := sweepSetup(pts)
	if err != nil {
		return err
	}
	r := runRound(ctx, pts, models)
	if err := errors.Join(r.errs...); err != nil {
		return err
	}
	// The run with spans feeds the span file; the layer times come from
	// the run without.
	parts := make([]layerParts, len(pts))
	for _, t := range []*tracer{tr, nil} {
		if err := layeredRound(ctx, t, 0, r, parts); err != nil {
			out.fail("%v", err)
		}
		if t != nil {
			clear(parts)
		}
	}
	addCounts(out, r.reports)
	addSystemLayers(out, pts, parts)
	return nil
}
