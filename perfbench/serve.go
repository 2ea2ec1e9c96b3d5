package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/resultcache"
	"repro/internal/resultcache/fsstore"
	"repro/internal/server"
	"repro/internal/sim"
)

// serveBlock sets the mix: each block of this many submissions holds
// exactly one config not yet seen in the run (20% fresh); the rest
// repeat an earlier fingerprint.
const serveBlock = 5

var serveSchemes = []sim.SchemeKind{sim.Base, sim.ALO, sim.BusyVC, sim.SelfTuned}

// servePool is how many configs have pinned digests. Fresh submissions
// walk a seed-permuted order of the pool; it is sized well past the
// fresh jobs a run completes, so the mix stays 80/20.
func servePool(smoke bool) int {
	if smoke {
		return 64
	}
	return 2048
}

// serveConfig is pool entry i: a short single point on the 16-ary
// 2-cube, below saturation, over 16 rates x 4 schemes x 32 seeds.
func serveConfig(i int, smoke bool) sim.Config {
	cfg := sim.NewConfig()
	cfg.WarmupCycles, cfg.MeasureCycles = 300, 1_200
	if smoke {
		cfg.K = 4
		cfg.WarmupCycles, cfg.MeasureCycles = 50, 150
	}
	cfg.Rate = 0.002 + 0.001*float64(i%16)
	cfg.Scheme = sim.Scheme{Kind: serveSchemes[i/16%len(serveSchemes)]}
	cfg.Seed = int64(1 + i/64)
	return cfg
}

// mix draws the submission sequence from the workload seed.
type mix struct {
	mu      sync.Mutex
	rng     *rand.Rand
	order   []int // fresh configs, in the order they are first submitted
	next    int
	seen    []int
	picks   int
	freshAt int // the pick of the current block that is fresh
}

func newMix(seed int64, pool int) *mix {
	rng := rand.New(rand.NewSource(seed))
	return &mix{rng: rng, order: rng.Perm(pool)}
}

// pick returns the next pool index and whether it is fresh.
func (m *mix) pick() (int, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.picks%serveBlock == 0 {
		m.freshAt = m.picks + m.rng.Intn(serveBlock)
	}
	fresh := m.picks == m.freshAt
	m.picks++
	if len(m.seen) == 0 || (fresh && m.next < len(m.order)) {
		i := m.order[m.next]
		m.next++
		m.seen = append(m.seen, i)
		return i, true
	}
	return m.seen[m.rng.Intn(len(m.seen))], false
}

// daemon is an in-process stcc-serve: the server package behind a real
// loopback listener, with a fresh on-disk result cache.
type daemon struct {
	srv   *server.Server
	hs    *http.Server
	base  string
	done  chan error
	store *timedStore // nil when untraced
}

func startDaemon(o *options, cacheDir string, tr *tracer) (*daemon, error) {
	fs, err := fsstore.New(cacheDir)
	if err != nil {
		return nil, err
	}
	d := &daemon{done: make(chan error, 1)}
	var store resultcache.Store = fs
	if tr != nil {
		d.store = &timedStore{inner: fs, tr: tr}
		store = d.store
	}
	d.srv = server.New(server.Config{Cache: store, JobWorkers: o.workers, PointWorkers: 1})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		_ = d.srv.Shutdown(context.Background())
		return nil, err
	}
	d.base = "http://" + ln.Addr().String()
	d.hs = &http.Server{Handler: d.srv.Handler()}
	go func() { d.done <- d.hs.Serve(ln) }()
	resp, err := http.Get(d.base + "/healthz")
	if err == nil {
		_, _ = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			err = fmt.Errorf("healthz: %s", resp.Status)
		}
	}
	if err != nil {
		d.stop()
		return nil, err
	}
	return d, nil
}

// stop shuts the listener and drains the job manager, waiting for both.
func (d *daemon) stop() {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	_ = d.hs.Shutdown(ctx)
	_ = d.srv.Shutdown(ctx)
	<-d.done
}

// serveSetup starts the daemon on a fresh cache and waits until it
// answers.
func serveSetup(o *options) (func(), error) {
	d, err := startDaemon(o, filepath.Join(o.dir, "cache"), nil)
	if err != nil {
		return nil, err
	}
	return d.stop, nil
}

// jobTiming is what the client saw of one job.
type jobTiming struct {
	result          []byte // the job's sim.Result JSON
	submit, waitFor time.Duration
}

// job submits body, follows the job's event stream to its end, and
// reads back the result, recording client-side spans under trace.
func (d *daemon) job(hc *http.Client, tr *tracer, trace string, body []byte) (jobTiming, error) {
	var jt jobTiming
	root := tr.begin("server.job", trace, 0)
	defer root.end()

	sp := tr.begin("server.submit", trace, root.id())
	t0 := time.Now()
	var sub struct {
		EventsURL string `json:"events_url"`
		StatusURL string `json:"status_url"`
	}
	err := d.call(hc, http.MethodPost, "/v1/jobs", body, http.StatusAccepted, &sub)
	submitted := time.Now()
	sp.end()
	jt.submit = submitted.Sub(t0)
	if err != nil {
		return jt, err
	}

	sp = tr.begin("server.events", trace, root.id())
	final, started, err := d.await(hc, sub.EventsURL)
	sp.end()
	if err != nil {
		return jt, err
	}
	if final != server.StateDone {
		return jt, fmt.Errorf("job ended %q", final)
	}
	jt.waitFor = started.Sub(submitted)

	sp = tr.begin("server.status", trace, root.id())
	var st struct {
		Result json.RawMessage `json:"result"`
	}
	err = d.call(hc, http.MethodGet, sub.StatusURL, nil, http.StatusOK, &st)
	sp.end()
	if err != nil {
		return jt, err
	}
	var payload struct {
		Groups [][]json.RawMessage `json:"groups"`
	}
	if err := json.Unmarshal(st.Result, &payload); err != nil {
		return jt, fmt.Errorf("job result: %w", err)
	}
	if len(payload.Groups) != 1 || len(payload.Groups[0]) != 1 {
		return jt, errors.New("job result is not one point")
	}
	// The server indents its replies; compacting restores the bytes
	// json.Marshal gives for the result, which is what the pins digest.
	var compact bytes.Buffer
	if err := json.Compact(&compact, payload.Groups[0][0]); err != nil {
		return jt, fmt.Errorf("job result: %w", err)
	}
	jt.result = compact.Bytes()
	return jt, nil
}

// call makes one request and decodes a JSON reply with the wanted
// status; any other status (a 429 refusal included) is an error.
func (d *daemon) call(hc *http.Client, method, path string, body []byte, want int, out any) error {
	req, err := http.NewRequest(method, d.base+path, bytes.NewReader(body))
	if err != nil {
		return err
	}
	resp, err := hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != want {
		return fmt.Errorf("%s %s: %s: %s", method, path, resp.Status, bytes.TrimSpace(data))
	}
	return json.Unmarshal(data, out)
}

// await follows a job's SSE stream to its end and returns the terminal
// event type and when the started event arrived.
func (d *daemon) await(hc *http.Client, path string) (final string, started time.Time, err error) {
	resp, err := hc.Get(d.base + path)
	if err != nil {
		return "", started, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return "", started, fmt.Errorf("GET %s: %s", path, resp.Status)
	}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		ev, ok := strings.CutPrefix(sc.Text(), "event: ")
		if !ok {
			continue
		}
		switch ev {
		case "started":
			started = time.Now()
		case server.StateDone, server.StateFailed, server.StateCanceled:
			final = ev
		}
	}
	return final, started, sc.Err()
}

// serveCounts is the slice of a sim.Result the traced run sums.
type serveCounts struct {
	PacketsCreated   int64
	PacketsInjected  int64
	PacketsDelivered int64
	Recoveries       int64
	ThrottleDenials  int64
	AvgFullBuffers   float64
}

func serveRun(o *options, tr *tracer, budget time.Duration) (*outcome, error) {
	d, err := startDaemon(o, filepath.Join(o.dir, "cache-"+strconv.FormatInt(time.Now().UnixNano(), 36)), tr)
	if err != nil {
		return nil, err
	}
	defer d.stop()
	hc := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: o.workers}}
	defer hc.CloseIdleConnections()

	pins := o.pins.Serve[sizeName(o.smoke)]
	mx := newMix(o.seed, servePool(o.smoke))
	oc := &outcome{}
	var (
		mu             sync.Mutex // guards oc and the slices below
		submits, waits []float64
		fresh          = make(map[int]serveCounts)
		slowest        time.Duration
		slowestIdx     = -1
		jobSeq         atomic.Int64
		wg             sync.WaitGroup
	)
	deadline := time.Now().Add(budget)
	cpu0, _ := usage()
	t0 := time.Now()
	for c := 0; c < o.workers; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(deadline) {
				idx, isFresh := mx.pick()
				cfg := serveConfig(idx, o.smoke)
				body, err := json.Marshal(cfg)
				if err != nil {
					mu.Lock()
					oc.attempted++
					oc.fail("serve-mixed: %v", err)
					mu.Unlock()
					continue
				}
				start := time.Now()
				jt, err := d.job(hc, tr, "job-"+strconv.FormatInt(jobSeq.Add(1), 10), body)
				took := time.Since(start)
				var counts serveCounts
				if err == nil && tr != nil && isFresh {
					err = json.Unmarshal(jt.result, &counts)
				}
				mu.Lock()
				oc.attempted++
				switch {
				case err != nil:
					oc.fail("serve-mixed config %d: %v", idx, err)
				case digestOf(jt.result) != pins[idx]:
					oc.fail("serve-mixed config %d result digest %s, pinned %s", idx, digestOf(jt.result), pins[idx])
				default:
					oc.jobs = append(oc.jobs, took.Seconds()*1e3)
					oc.nodeCycles += nodeCycles(cfg)
					submits = append(submits, jt.submit.Seconds()*1e3)
					waits = append(waits, jt.waitFor.Seconds()*1e3)
					if isFresh {
						fresh[idx] = counts
						if took > slowest {
							slowest, slowestIdx = took, idx
						}
					}
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	cpu1, _ := usage()
	oc.walls = []float64{time.Since(t0).Seconds()}
	oc.cpus = []float64{(cpu1 - cpu0).Seconds()}
	if tr == nil {
		return oc, nil
	}

	var met server.Metrics
	if err := d.call(hc, http.MethodGet, "/metrics.json", nil, http.StatusOK, &met); err != nil {
		return nil, err
	}
	m := d.store.layer()
	m["server.submit_ms.p50"] = median(submits)
	m["server.queue_wait_ms.p50"] = median(waits)
	m["server.queue_wait_ms.p99"], _ = tail(waits, 99)
	m["server.shed"] = float64(met.JobsRejected)
	m["experiments.flight_shared"] = float64(met.SharedPoints)
	m["experiments.points"] = float64(met.Points)
	m["experiments.sims"] = float64(met.Simulated)
	if met.Simulated > 0 {
		m["experiments.distinct_ratio"] = float64(len(fresh)) / float64(met.Simulated)
	}
	var created, injected, flits, recoveries, denials int64
	var full float64
	for idx, c := range fresh {
		created += c.PacketsCreated
		injected += c.PacketsInjected
		// A sim.Result carries delivered packets, not flits; every
		// packet of a pool config has the same length.
		flits += c.PacketsDelivered * int64(serveConfig(idx, o.smoke).PacketLength)
		recoveries += c.Recoveries
		denials += c.ThrottleDenials
		full += c.AvgFullBuffers
	}
	addCounts(m, created, injected, flits, recoveries, denials)
	if len(fresh) > 0 {
		m["router.full_vc_mean"] = full / float64(len(fresh))
	}
	oc.layer = m
	if slowestIdx >= 0 {
		oc.costliest = &ledgerInput{cfg: serveConfig(slowestIdx, o.smoke)}
	}
	return oc, nil
}

// timedStore is a timing decorator over a resultcache.Store.
type timedStore struct {
	inner resultcache.Store
	tr    *tracer

	mu         sync.Mutex
	gets, puts []float64 // milliseconds
	hits       int
}

func shortFP(fp string) string { return "fp:" + fp[:min(len(fp), 16)] }

func (s *timedStore) Get(fp string) (sim.Result, bool, error) {
	sp := s.tr.begin("resultcache.get", shortFP(fp), 0)
	r, ok, err := s.inner.Get(fp)
	d := sp.end()
	s.mu.Lock()
	s.gets = append(s.gets, d.Seconds()*1e3)
	if ok {
		s.hits++
	}
	s.mu.Unlock()
	return r, ok, err
}

func (s *timedStore) Put(fp string, r sim.Result) error {
	sp := s.tr.begin("resultcache.put", shortFP(fp), 0)
	err := s.inner.Put(fp, r)
	d := sp.end()
	s.mu.Lock()
	s.puts = append(s.puts, d.Seconds()*1e3)
	s.mu.Unlock()
	return err
}

func (s *timedStore) Len() (int, error) { return s.inner.Len() }

func (s *timedStore) layer() map[string]float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	m := map[string]float64{
		"resultcache.get_ms.p50": median(s.gets),
		"resultcache.put_ms.p50": median(s.puts),
		"resultcache.gets":       float64(len(s.gets)),
		"resultcache.puts":       float64(len(s.puts)),
	}
	if len(s.gets) > 0 {
		m["resultcache.hit_ratio"] = float64(s.hits) / float64(len(s.gets))
	}
	return m
}
