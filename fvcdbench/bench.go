package main

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// setupReps is how many times a run boots its fvcd topology; setup_s is
// the median, and only the last boot serves the measured load.
const setupReps = 9

// env is what every workload shares: the seed, the run's scratch
// directory, the tracer, and the client transport.
type env struct {
	seed uint64
	dir  string
	tr   *tracer
	hc   *http.Client
}

func newEnv(seed uint64, dir string) *env {
	return &env{
		seed: seed,
		dir:  dir,
		tr:   &tracer{},
		hc: &http.Client{Transport: &http.Transport{
			MaxIdleConnsPerHost: 16,
			DisableCompression:  true,
		}},
	}
}

// rig is one booted workload: fvcd topology, fixtures and clients.
type rig interface {
	// clients is the number of closed-loop clients.
	clients() int
	// cycle runs one closed-loop cycle of a client, logging into l.
	cycle(client int, l *opLog)
	// verify runs the untimed oracle checks over every phase's log,
	// counting checks, wrong answers and any requests it sends in vl.
	verify(logs []*opLog, vl *opLog) error
	// endToEnd derives the workload's end-to-end metrics from a phase.
	endToEnd(l *opLog) e2e
	// beginTrace starts what the traced phase watches besides spans.
	beginTrace()
	// scrape reads fvcd's counters (summed over replicas and router).
	scrape() (promSample, error)
	// layers derives the per-layer metrics of the traced phase from its
	// log, its spans and the counters around it. verify has run.
	layers(l *opLog, spans []span, before, after promSample) (map[string]float64, error)
	close()
}

// e2e holds the end-to-end figures every workload reports, plus the
// workload-specific named figures printed for people.
type e2e struct {
	evalP50, evalTail, pointsPerS, cycleP50 float64
	named                                   []namedMetric
}

type namedMetric struct {
	name, unit string
	value      float64
	n          int
}

// opLog is what one client (then, merged, one phase) records.
type opLog struct {
	wall      time.Duration
	lat       map[string][]time.Duration // by op: survey, job, query, patch
	shapes    map[string][]time.Duration // survey and query latency by request shape
	cycles    []time.Duration
	points    map[string]int64 // coverage points answered, by op
	respBytes map[string]int64
	attempted int64
	failed    int64
	checks    int64 // oracle checks made (verification log only)
	errs      []string
	peakRSS   float64 // MB

	queries []*querySample
	patches []*patchRecord
	surveys []surveyAnswer
	jobs    []jobAnswer
}

func newOpLog() *opLog {
	return &opLog{
		lat:       make(map[string][]time.Duration),
		shapes:    make(map[string][]time.Duration),
		points:    make(map[string]int64),
		respBytes: make(map[string]int64),
	}
}

// fail counts one failed operation, keeping the first messages.
func (l *opLog) fail(format string, args ...any) {
	l.failed++
	if len(l.errs) < 5 {
		l.errs = append(l.errs, fmt.Sprintf(format, args...))
	}
}

func (l *opLog) merge(o *opLog) {
	for k, v := range o.lat {
		l.lat[k] = append(l.lat[k], v...)
	}
	for k, v := range o.shapes {
		l.shapes[k] = append(l.shapes[k], v...)
	}
	for k, v := range o.points {
		l.points[k] += v
	}
	for k, v := range o.respBytes {
		l.respBytes[k] += v
	}
	l.cycles = append(l.cycles, o.cycles...)
	l.attempted += o.attempted
	l.failed += o.failed
	for _, e := range o.errs {
		if len(l.errs) < 5 {
			l.errs = append(l.errs, e)
		}
	}
	l.queries = append(l.queries, o.queries...)
	l.patches = append(l.patches, o.patches...)
	l.surveys = append(l.surveys, o.surveys...)
	l.jobs = append(l.jobs, o.jobs...)
}

// runPhase drives every client in a closed loop until d has passed (a
// cycle already started runs to completion) and merges their logs in
// client order.
func runPhase(r rig, d time.Duration) *opLog {
	logs := make([]*opLog, r.clients())
	stop := make(chan struct{})
	peak := make(chan float64)
	go func() { peak <- sampleRSS(stop) }()
	start := time.Now()
	deadline := start.Add(d)
	var wg sync.WaitGroup
	for c := range logs {
		logs[c] = newOpLog()
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for time.Now().Before(deadline) {
				r.cycle(c, logs[c])
			}
		}(c)
	}
	wg.Wait()
	out := newOpLog()
	out.wall = time.Since(start)
	close(stop)
	out.peakRSS = <-peak
	for _, l := range logs {
		out.merge(l)
	}
	return out
}

// sampleRSS polls the process's resident set until stop closes and
// returns the largest reading in MB.
func sampleRSS(stop <-chan struct{}) float64 {
	tick := time.NewTicker(20 * time.Millisecond)
	defer tick.Stop()
	peak := rssMB()
	for {
		select {
		case <-stop:
			return math.Max(peak, rssMB())
		case <-tick.C:
			peak = math.Max(peak, rssMB())
		}
	}
}

func rssMB() float64 {
	data, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return 0
	}
	f := strings.Fields(string(data))
	if len(f) < 2 {
		return 0
	}
	pages, _ := strconv.ParseFloat(f[1], 64)
	return pages * float64(os.Getpagesize()) / (1 << 20)
}

// client is one closed-loop caller of fvcd over loopback HTTP.
type client struct {
	e    *env
	base string
	buf  bytes.Buffer
	// lastID is the tracer id of the latest request (0 when untraced).
	lastID uint64
}

// do sends one request and reads the whole answer. The returned body
// is valid until the next call.
func (c *client) do(method, path string, body []byte) (code int, resp []byte, lat time.Duration, err error) {
	id := c.e.tr.newRequestID()
	c.lastID = id
	req, err := http.NewRequest(method, c.base+path, bytes.NewReader(body))
	if err != nil {
		return 0, nil, 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	if id != 0 {
		req.Header.Set(spanHeader, strconv.FormatUint(id, 10))
	}
	t0 := time.Now()
	res, err := c.e.hc.Do(req)
	if err != nil {
		return 0, nil, time.Since(t0), err
	}
	c.buf.Reset()
	_, err = c.buf.ReadFrom(res.Body)
	res.Body.Close()
	end := time.Now()
	if id != 0 {
		c.e.tr.record(span{req: id, layer: "client", route: routeOf(method, req.URL.Path), start: t0, end: end})
	}
	return res.StatusCode, c.buf.Bytes(), end.Sub(t0), err
}

// call is do for requests whose failure fails the operation: a
// transport error or an unexpected status is logged as a failure and
// reported as ok == false.
func (c *client) call(l *opLog, q request, want int) (resp []byte, ok bool) {
	l.attempted++
	code, resp, lat, err := c.do(q.method, q.path, q.body)
	switch {
	case err != nil:
		l.fail("%s %s: %v", q.op, q.path, err)
		return nil, false
	case code != want:
		l.fail("%s %s: status %d: %.200s", q.op, q.path, code, resp)
		return nil, false
	}
	l.lat[q.op] = append(l.lat[q.op], lat)
	if q.shape != "" {
		l.shapes[q.shape] = append(l.shapes[q.shape], lat)
	}
	return resp, true
}

// shapeP50 is the mean over request shapes of each shape's median
// latency in ms. A workload mixes shapes of very different cost (het
// and homog, four angles), and the pooled median of such a mix falls
// in the gap between them, where it jumps from run to run.
func shapeP50(l *opLog) float64 {
	var sum float64
	for _, d := range l.shapes {
		sum += quantile(d, 0.5)
	}
	return sum / float64(max(len(l.shapes), 1))
}

// listen binds a loopback listener on the given port (0 picks one).
func listen(port int) (net.Listener, error) {
	return net.Listen("tcp", fmt.Sprintf("127.0.0.1:%d", port))
}

// freePorts reserves n loopback port numbers by binding and releasing
// them, for topologies whose members must know each other's addresses
// before any of them listens.
func freePorts(n int) ([]int, error) {
	var lns []net.Listener
	defer func() {
		for _, ln := range lns {
			ln.Close()
		}
	}()
	ports := make([]int, n)
	for i := range ports {
		ln, err := listen(0)
		if err != nil {
			return nil, err
		}
		lns = append(lns, ln)
		ports[i] = ln.Addr().(*net.TCPAddr).Port
	}
	return ports, nil
}

// httpServer serves h on ln until shut down.
type httpServer struct {
	hs   *http.Server
	done chan error
}

func serve(ln net.Listener, h http.Handler) *httpServer {
	s := &httpServer{hs: &http.Server{Handler: h}, done: make(chan error, 1)}
	go func() { s.done <- s.hs.Serve(ln) }()
	return s
}

func (s *httpServer) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	s.hs.Shutdown(ctx)
	<-s.done
}

// waitFor polls cond every millisecond until it holds or 30 s pass.
func waitFor(what string, cond func() bool) error {
	deadline := time.Now().Add(30 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			return fmt.Errorf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
	return nil
}

// get fetches a URL and returns status and body.
func get(hc *http.Client, url string) (int, []byte, error) {
	res, err := hc.Get(url)
	if err != nil {
		return 0, nil, err
	}
	defer res.Body.Close()
	body, err := io.ReadAll(res.Body)
	return res.StatusCode, body, err
}

// ready reports whether base answers /readyz with status ok.
func ready(hc *http.Client, base string) bool {
	code, body, err := get(hc, base+"/readyz")
	return err == nil && code == http.StatusOK && bytes.Contains(body, []byte(`"status":"ok"`))
}

// promSample is a parsed Prometheus text exposition: series → value.
type promSample map[string]float64

// parseProm reads the series lines of a Prometheus text exposition.
func parseProm(data []byte) promSample {
	out := make(promSample)
	sc := bufio.NewScanner(bytes.NewReader(data))
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err == nil {
			out[line[:i]] = v
		}
	}
	return out
}

// scrape reads an fvcd replica's /metrics.
func scrape(hc *http.Client, base string) (promSample, error) {
	code, body, err := get(hc, base+"/metrics")
	if err != nil {
		return nil, err
	}
	if code != http.StatusOK {
		return nil, fmt.Errorf("metrics: status %d", code)
	}
	return parseProm(body), nil
}

// family sums every series of a metric family whose labels contain all
// of the given label pairs.
func (p promSample) family(name string, labels ...string) float64 {
	var sum float64
	for k, v := range p {
		if k != name && !strings.HasPrefix(k, name+"{") {
			continue
		}
		match := true
		for _, l := range labels {
			if !strings.Contains(k, l) {
				match = false
			}
		}
		if match {
			sum += v
		}
	}
	return sum
}

// delta is after − before of one family.
func delta(before, after promSample, name string, labels ...string) float64 {
	return after.family(name, labels...) - before.family(name, labels...)
}

// sumProm adds samples series by series.
func sumProm(ps ...promSample) promSample {
	out := make(promSample)
	for _, p := range ps {
		for k, v := range p {
			out[k] += v
		}
	}
	return out
}

// quantile is the linearly interpolated q-quantile of xs in ms.
func quantile(xs []time.Duration, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := make([]float64, len(xs))
	for i, x := range xs {
		s[i] = float64(x) / 1e6
	}
	return quantileF(s, q)
}

func quantileF(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// fileSize is the size of path, 0 if it does not exist.
func fileSize(path string) int64 {
	st, err := os.Stat(path)
	if err != nil {
		return 0
	}
	return st.Size()
}

// sizeWatch polls file sizes until stopped, tracking each file's peak
// and counting shrinks (a journal compaction rewrites the file
// smaller).
type sizeWatch struct {
	stop   chan struct{}
	done   chan struct{}
	peak   map[string]int64
	shrink int
}

func watchSizes(every time.Duration, paths func() []string) *sizeWatch {
	w := &sizeWatch{stop: make(chan struct{}), done: make(chan struct{}), peak: make(map[string]int64)}
	last := make(map[string]int64)
	go func() {
		defer close(w.done)
		tick := time.NewTicker(every)
		defer tick.Stop()
		for {
			for _, p := range paths() {
				n := fileSize(p)
				if n < last[p] {
					w.shrink++
				}
				last[p] = n
				if n > w.peak[p] {
					w.peak[p] = n
				}
			}
			select {
			case <-w.stop:
				return
			case <-tick.C:
			}
		}
	}()
	return w
}

// close stops the watcher; its fields are final once it returns.
func (w *sizeWatch) close() {
	close(w.stop)
	<-w.done
}
