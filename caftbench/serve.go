package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"caft/internal/service"
)

const (
	// ridHeader carries the benchmark's request id to the entry node's
	// traced handler; caftd ignores it.
	ridHeader = "X-Caftbench-Request"
	// forwardedHeader is caftd's internal routing-hop marker.
	forwardedHeader = "X-Caft-Forwarded"

	coldWarm        = 8   // serve-cold warm-up requests (connections, first computes)
	coldSampleEvery = 4   // traced serve-cold: replay and rebuild every 4th request
	coldVerifyEvery = 128 // untraced serve-cold: rebuild every 128th request after the run
	coldPerS        = 120 // serve-cold requests a run sends per --seconds
	coldCap         = 3   // a serve-cold phase stops at coldCap times its seconds
	clusterPort     = 47193
)

// servingConfig selects one serving workload.
type servingConfig struct {
	nodes int
	cold  bool
}

// node is one in-process caftd: a Service behind NewHandler on a real
// loopback listener.
type node struct {
	svc  *service.Service
	srv  *http.Server
	addr string
	wrap *tracedHandler // nil on untraced runs
	done chan struct{}
}

// bootNodes starts n nodes; with n > 1 they form one consistent-hash
// cluster. rec, when set, wraps every node's handler for tracing.
func bootNodes(n int, cfg service.Config, rec *recorder) ([]*node, error) {
	lns := make([]net.Listener, n)
	addrs := make([]string, n)
	for i := range lns {
		addr := "127.0.0.1:0"
		if n > 1 {
			// Ring ownership is a function of the member addresses, so a
			// cluster listens on fixed ones: with kernel-chosen ports the
			// share of forwarded requests would change from run to run.
			addr = fmt.Sprintf("127.0.83.%d:%d", 11+i, clusterPort)
		}
		ln, err := net.Listen("tcp", addr)
		if err != nil {
			for _, l := range lns[:i] {
				l.Close()
			}
			return nil, err
		}
		lns[i], addrs[i] = ln, ln.Addr().String()
	}
	nodes := make([]*node, 0, n)
	for i, ln := range lns {
		c := cfg
		if n > 1 {
			c.Self, c.Peers = addrs[i], addrs
		}
		svc, err := service.New(c)
		if err != nil {
			for _, l := range lns[i:] {
				l.Close()
			}
			closeNodes(nodes)
			return nil, err
		}
		nd := &node{svc: svc, addr: addrs[i], done: make(chan struct{})}
		h := service.NewHandler(svc)
		if rec != nil {
			nd.wrap = &tracedHandler{next: h, node: i, rec: rec}
			h = nd.wrap
		}
		// caftd's production server timeouts.
		nd.srv = &http.Server{Handler: h, ReadHeaderTimeout: 5 * time.Second,
			ReadTimeout: 60 * time.Second, IdleTimeout: 120 * time.Second}
		go func(ln net.Listener) {
			nd.srv.Serve(ln)
			close(nd.done)
		}(ln)
		nodes = append(nodes, nd)
	}
	return nodes, nil
}

// closeNodes shuts the servers down, waiting for in-flight handlers (a
// traced handler records its span after the client already has the
// reply), then closes the services, which syncs the disk tier.
func closeNodes(nodes []*node) {
	for _, nd := range nodes {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		if nd.srv.Shutdown(ctx) != nil {
			nd.srv.Close()
		}
		cancel()
		<-nd.done
		nd.svc.Close()
	}
}

func setTracing(nodes []*node, on bool) {
	for _, nd := range nodes {
		if nd.wrap != nil {
			nd.wrap.on.Store(on)
		}
	}
}

// statsSum adds the serving counters of all nodes.
func statsSum(nodes []*node) service.StatsSnapshot {
	var t service.StatsSnapshot
	for _, nd := range nodes {
		s := nd.svc.Stats()
		t.Hits += s.Hits
		t.Misses += s.Misses
		t.DiskHits += s.DiskHits
		t.Shed += s.Shed
		t.Forwards += s.Forwards
		t.ForwardErrors += s.ForwardErrors
		t.CacheEntries += s.CacheEntries
		t.DiskEntries += s.DiskEntries
	}
	return t
}

// tracedHandler wraps a node's http.Handler and records one span per
// request while on.
type tracedHandler struct {
	next http.Handler
	node int
	rec  *recorder
	on   atomic.Bool
}

func (h *tracedHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if !h.on.Load() {
		h.next.ServeHTTP(w, r)
		return
	}
	rid, _ := strconv.ParseInt(r.Header.Get(ridHeader), 10, 64)
	kw := keyWriter{ResponseWriter: w}
	start := h.rec.now()
	h.next.ServeHTTP(&kw, r)
	end := h.rec.now()
	h.rec.add(span{name: "service.handler", req: rid, node: h.node, start: start, end: end,
		hop: r.Header.Get(forwardedHeader) != "", key: keyOf(kw.head[:kw.n])})
}

// keyWriter keeps the first bytes of a response, which hold its cache
// key, so a forwarded hop can be paired with its entry span.
type keyWriter struct {
	http.ResponseWriter
	head [48]byte
	n    int
}

func (k *keyWriter) Write(b []byte) (int, error) {
	k.n += copy(k.head[k.n:], b)
	return k.ResponseWriter.Write(b)
}

// keyOf returns the "key" field that leads every caftd response.
func keyOf(resp []byte) string {
	const prefix = `{"key":"`
	if len(resp) < len(prefix)+32 || string(resp[:len(prefix)]) != prefix {
		return ""
	}
	return string(resp[len(prefix) : len(prefix)+32])
}

// client is one closed-loop client goroutine's state: one HTTP/1.1
// keep-alive connection, one outstanding request. It writes each
// request with one write call and parses the reply on the same
// goroutine, so a request costs the client no goroutine hand-offs.
type client struct {
	addr string
	head []byte // request line and fixed headers
	pick picker
	conn net.Conn
	br   *bufio.Reader
	wbuf []byte
	buf  bytes.Buffer
}

func newClient(id int, addr string, seed int64) *client {
	return &client{
		addr: addr,
		head: []byte("POST /schedule HTTP/1.1\r\nHost: " + addr + "\r\nContent-Type: application/json\r\n"),
		pick: newPicker(seed, id, hotProblems),
	}
}

// clientTimeout bounds one request, as a client timeout would.
const clientTimeout = 30 * time.Second

// post sends one body and leaves the response body in c.buf. After a
// transport error the next post dials a new connection.
func (c *client) post(body []byte, rid int64) (int, error) {
	c.wbuf = append(c.wbuf[:0], c.head...)
	if rid != 0 {
		c.wbuf = append(c.wbuf, ridHeader+": "...)
		c.wbuf = strconv.AppendInt(c.wbuf, rid, 10)
		c.wbuf = append(c.wbuf, "\r\n"...)
	}
	c.wbuf = append(c.wbuf, "Content-Length: "...)
	c.wbuf = strconv.AppendInt(c.wbuf, int64(len(body)), 10)
	c.wbuf = append(c.wbuf, "\r\n\r\n"...)
	c.wbuf = append(c.wbuf, body...)
	if c.conn == nil {
		conn, err := net.DialTimeout("tcp", c.addr, clientTimeout)
		if err != nil {
			return 0, err
		}
		c.conn, c.br = conn, bufio.NewReader(conn)
	}
	c.conn.SetDeadline(time.Now().Add(clientTimeout))
	resp, err := c.send()
	if err != nil || resp.Close {
		c.close()
	}
	if err != nil {
		return 0, err
	}
	return resp.StatusCode, nil
}

// send writes the request in c.wbuf and reads one response, leaving its
// body in c.buf.
func (c *client) send() (*http.Response, error) {
	if _, err := c.conn.Write(c.wbuf); err != nil {
		return nil, err
	}
	resp, err := http.ReadResponse(c.br, nil)
	if err != nil {
		return nil, err
	}
	c.buf.Reset()
	_, err = c.buf.ReadFrom(resp.Body)
	resp.Body.Close()
	return resp, err
}

// close drops the client's connection; the next post dials a new one.
func (c *client) close() {
	if c.conn != nil {
		c.conn.Close()
		c.conn, c.br = nil, nil
	}
}

// servingRun is one serving workload from set-up to tear-down.
type servingRun struct {
	cfg     servingConfig
	seed    int64
	workDir string
	seconds int

	bodies  [][]byte
	rank    []int // cluster-hot: problem of each zipf rank (nil = identity)
	nodes   []*node
	clients []*client
	ledger  *ledger // hot workloads: the byte-identity gate
	diskDir string
	next    atomic.Int64 // serve-cold: next body to send
	stop    int64        // serve-cold: the phase ends before this body

	// shadow re-runs Do on decoded requests for the traced rows: a warmed
	// twin on the hot workloads (hits), a fresh twin on serve-cold
	// (misses), so the nodes' counters see only client traffic.
	shadow *service.Service
	rec    *recorder // nil on untraced runs
	rids   atomic.Int64

	warmStats                          phase
	gateSetup, gateReplay, gateRebuild gateCount
	kept                               []keptResp // untraced serve-cold: responses to rebuild after the run
	keptMu                             sync.Mutex
}

// gateCount tallies one correctness gate's checks and first failure.
type gateCount struct {
	checks atomic.Int64
	fails  atomic.Int64
	mu     sync.Mutex
	first  error
}

func (g *gateCount) pass() { g.checks.Add(1) }

func (g *gateCount) fail(err error) {
	g.checks.Add(1)
	if g.fails.Add(1) == 1 {
		g.mu.Lock()
		g.first = err
		g.mu.Unlock()
	}
}

func (g *gateCount) result(name string) gate {
	g.mu.Lock()
	defer g.mu.Unlock()
	return gate{name: name, checks: int(g.checks.Load()), err: g.first}
}

type keptResp struct {
	p    int
	body []byte
}

// clientStats is one client's tally over one phase.
type clientStats struct {
	attempted, ok, failed int
	// lat holds the client-observed latency in seconds of each 200
	// response. Four bytes each keep the benchmark's own buffers small
	// next to the RSS it reports.
	lat []float32
}

func (w *servingRun) nodeConfig() service.Config {
	if w.cfg.cold {
		return service.Config{CacheMax: coldCache, DiskDir: w.diskDir}
	}
	return service.Config{CacheMax: 65536} // caftd's default
}

// setup boots the nodes, generates the bodies and warms the caches. It
// is timed as setup_s and repeated; only the last set-up stays up.
func (w *servingRun) setup() error {
	var err error
	if w.cfg.cold {
		if w.diskDir, err = os.MkdirTemp(w.workDir, "disk-"); err != nil {
			return err
		}
		w.bodies, err = marshalAll(coldWarm+coldPerS*w.seconds, func(i int) *service.Request { return coldRequest(w.seed, i) })
	} else {
		w.bodies, err = marshalAll(hotProblems, func(i int) *service.Request { return hotRequest(w.seed, i) })
	}
	if err != nil {
		return err
	}
	if w.nodes, err = bootNodes(w.cfg.nodes, w.nodeConfig(), w.rec); err != nil {
		return err
	}
	w.clients = make([]*client, numClients())
	for i := range w.clients {
		// Client i always enters through node i mod nodes.
		w.clients[i] = newClient(i, w.nodes[i%len(w.nodes)].addr, w.seed)
	}
	return w.warm()
}

// warm sends every hot problem once (each distinct key computed once),
// or the first coldWarm serve-cold bodies.
func (w *servingRun) warm() error {
	if w.cfg.nodes > 1 {
		return w.warmCluster()
	}
	n := hotProblems
	if w.cfg.cold {
		n = coldWarm
		w.stop = coldWarm
	}
	errs := make([]error, len(w.clients))
	tallies := make([]phase, len(w.clients))
	var wg sync.WaitGroup
	for ci, c := range w.clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for p := ci; p < n && errs[ci] == nil; p += len(w.clients) {
				errs[ci] = w.warmOne(c, p, &tallies[ci])
			}
		}()
	}
	wg.Wait()
	for _, t := range tallies {
		w.warmStats.attempted += t.attempted
		w.warmStats.ok += t.ok
		w.warmStats.failed += t.failed
	}
	return errors.Join(errs...)
}

// warmCluster warms a cluster one request at a time, and learns from
// the nodes' miss counters which node owns each problem. It then ranks
// the problems so that zipf rank k is owned by node k mod nodes. Without
// that, which node happens to own the few hottest problems would set the
// forwarded share of a run, and with it p50_ms, differently for every
// seed.
func (w *servingRun) warmCluster() error {
	owned := make([][]int, len(w.nodes))
	misses := make([]int64, len(w.nodes))
	for i, nd := range w.nodes {
		misses[i] = nd.svc.Stats().Misses
	}
	for p := 0; p < hotProblems; p++ {
		if err := w.warmOne(w.clients[p%len(w.clients)], p, &w.warmStats); err != nil {
			return err
		}
		owner := -1
		for i, nd := range w.nodes {
			if m := nd.svc.Stats().Misses; m != misses[i] {
				owner, misses[i] = i, m
			}
		}
		if owner < 0 {
			return fmt.Errorf("warm-up: no node computed problem %d", p)
		}
		owned[owner] = append(owned[owner], p)
	}
	w.rank = interleave(owned)
	return nil
}

// warmOne sends problem p once during warm-up and checks its bytes.
func (w *servingRun) warmOne(c *client, p int, t *phase) error {
	status, err := c.post(w.bodies[p], 0)
	t.attempted++
	if err == nil && status != http.StatusOK {
		err = fmt.Errorf("warm-up: problem %d: HTTP %d: %s", p, status, c.buf.Bytes())
	}
	if err != nil {
		t.failed++
		return err
	}
	t.ok++
	switch {
	case w.cfg.cold:
	case w.ledger.check(p, c.buf.Bytes()):
		w.gateSetup.pass()
	default:
		w.gateSetup.fail(fmt.Errorf("problem %d: warm-up bytes differ from a direct Service.Do", p))
	}
	return nil
}

// interleave orders the members of groups round-robin: the first of
// each group, then the second of each, and so on.
func interleave(groups [][]int) []int {
	var out []int
	for more := true; more; {
		more = false
		for g := range groups {
			if len(groups[g]) > 0 {
				out = append(out, groups[g][0])
				groups[g] = groups[g][1:]
				more = true
			}
		}
	}
	return out
}

// teardown closes the clients and nodes of one set-up.
func (w *servingRun) teardown() {
	for _, c := range w.clients {
		c.close()
	}
	closeNodes(w.nodes)
	w.nodes = nil
}

// pinReference pins every hot problem's ledger entry to the bytes of a
// direct Service.Do on a fresh single-node service, and keeps that
// service as the warmed shadow.
func (w *servingRun) pinReference() error {
	ref, err := service.New(service.Config{})
	if err != nil {
		return err
	}
	w.shadow = ref
	w.ledger = newLedger(hotProblems)
	for i := 0; i < hotProblems; i++ {
		b, err := ref.Do(context.Background(), hotRequest(w.seed, i))
		if err != nil {
			return fmt.Errorf("reference Do, problem %d: %w", i, err)
		}
		w.ledger.check(i, b)
	}
	return nil
}

// phase drives the closed loop: every client sends its next request as
// soon as the previous reply is read. A hot phase lasts d. A serve-cold
// phase sends the next n bodies, so that every run appends as many
// bytes to the disk tier and rotates its segments as often; it stops
// early only if that takes coldCap times d.
func (w *servingRun) phase(d time.Duration, n int, traced bool) ([]clientStats, time.Duration) {
	// Sized up front for the hot workloads' rate, so buffer growth does
	// not add to the peak RSS the run reports.
	size := 16384 * (1 + int(d.Seconds()))
	if w.cfg.cold {
		w.next.Store(w.stop)
		w.stop += int64(n)
		d *= coldCap
		size = n
	}
	start := time.Now()
	deadline := start.Add(d)
	res := make([]clientStats, len(w.clients))
	var wg sync.WaitGroup
	for i, c := range w.clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			res[i] = w.drive(c, deadline, size, traced)
		}()
	}
	wg.Wait()
	return res, time.Since(start)
}

func (w *servingRun) drive(c *client, deadline time.Time, size int, traced bool) clientStats {
	st := clientStats{lat: make([]float32, 0, size)}
	for time.Now().Before(deadline) {
		var p int
		if w.cfg.cold {
			i := w.next.Add(1) - 1
			if i >= w.stop {
				break
			}
			p = int(i)
		} else {
			p = c.pick.next()
			if w.rank != nil {
				p = w.rank[p]
			}
		}
		var rid int64
		if traced {
			rid = w.rids.Add(1)
		}
		t0 := time.Now()
		status, err := c.post(w.bodies[p], rid)
		t1 := time.Now()
		st.attempted++
		if err != nil || status != http.StatusOK {
			st.failed++
			continue
		}
		st.ok++
		st.lat = append(st.lat, float32(t1.Sub(t0).Seconds()))
		body := c.buf.Bytes()
		if !w.cfg.cold && !w.ledger.check(p, body) {
			continue
		}
		switch {
		case traced:
			w.rec.call("client", rid, t0, t1)
			if !w.cfg.cold || p%coldSampleEvery == 0 {
				w.replay(p, rid, body)
			}
		case w.cfg.cold && p%coldVerifyEvery == 0:
			w.keptMu.Lock()
			w.kept = append(w.kept, keptResp{p, bytes.Clone(body)})
			w.keptMu.Unlock()
		}
	}
	return st
}

// replay re-runs the served request's decode and Do (and on serve-cold
// the library rebuild) for the traced rows, and checks each against the
// served bytes.
func (w *servingRun) replay(p int, rid int64, served []byte) {
	t0 := w.rec.now()
	var req service.Request
	dec := json.NewDecoder(bytes.NewReader(w.bodies[p]))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		w.gateReplay.fail(fmt.Errorf("problem %d: decode replay: %w", p, err))
		return
	}
	t1 := w.rec.now()
	resp, err := w.shadow.Do(context.Background(), &req)
	t2 := w.rec.now()
	if err == nil && !bytes.Equal(resp, served) {
		err = errors.New("replayed Do differs from the served bytes")
	}
	if err != nil {
		w.gateReplay.fail(fmt.Errorf("problem %d: %w", p, err))
		return
	}
	w.gateReplay.pass()
	w.rec.add(span{name: "service.decode", req: rid, start: t0, end: t1, replayed: true})
	doID := w.rec.add(span{name: "service.do", req: rid, start: t1, end: t2, replayed: true})
	if !w.cfg.cold {
		return
	}
	var st stageTimes
	if err := checkRebuild(&req, served, &st); err != nil {
		w.gateRebuild.fail(fmt.Errorf("problem %d: %w", p, err))
		return
	}
	w.gateRebuild.pass()
	at := w.rec.now()
	for i, d := range st {
		w.rec.add(span{name: stageNames[i], req: rid, parent: doID, start: at, end: at + d, replayed: true})
		at += d
	}
}

// verifyKept rebuilds the responses kept by an untraced serve-cold run.
func (w *servingRun) verifyKept() {
	for _, k := range w.kept {
		var st stageTimes
		if err := checkRebuild(coldRequest(w.seed, k.p), k.body, &st); err != nil {
			w.gateRebuild.fail(fmt.Errorf("problem %d: %w", k.p, err))
			continue
		}
		w.gateRebuild.pass()
	}
}

// checkRebuild is the serve-cold gate: the library rebuild of req,
// with the key copied from served, must reproduce served byte for byte.
func checkRebuild(req *service.Request, served []byte, st *stageTimes) error {
	rebuilt, err := rebuildCold(req, keyOf(served), runtime.GOMAXPROCS(0), st)
	if err == nil && !bytes.Equal(rebuilt, served) {
		err = errors.New("library rebuild differs from the served bytes")
	}
	return err
}

// mergeStats folds the clients' tallies of one phase and returns its
// latencies in seconds, sorted.
func mergeStats(name string, cs []clientStats) (phase, []float64) {
	ph := phase{name: name}
	n := 0
	for _, c := range cs {
		n += len(c.lat)
	}
	lat := make([]float64, 0, n)
	for _, c := range cs {
		ph.attempted += c.attempted
		ph.ok += c.ok
		ph.failed += c.failed
		for _, l := range c.lat {
			lat = append(lat, float64(l))
		}
	}
	sort.Float64s(lat)
	return ph, lat
}
