package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"time"

	"fullview/internal/cluster"
	"fullview/internal/depjournal"
	"fullview/internal/sensor"
	"fullview/internal/server"
	"fullview/internal/spatial"
)

// Churn-cluster shape: /query batches of churnQueryPoints points; every
// churnSampleEvery-th answer of a client is kept for the oracle.
const (
	churnQueryPoints = 256
	churnSampleEvery = 16
	// journalReplays caps the PATCHes replayed through a fresh
	// depjournal: each append is fsynced.
	journalReplays = 256
)

// churnGen is the churn-cluster request stream. Client 0 PATCHes a
// random deployment (8 re-aims, 1 removal, 1 addition) and then
// queries it; client 1 queries random deployments. A PATCH removes one
// camera and adds one, so every deployment keeps fixtureN live cameras
// and the stream does not depend on fvcd's answers.
type churnGen struct {
	ids      []string
	profiles []sensor.Profile
	streams  []*stream
}

func newChurnGen(seed uint64, deps []*deployment) (*churnGen, error) {
	g := &churnGen{ids: idsOf(deps)}
	for _, d := range deps {
		p, err := sensor.ParseProfile(d.profile)
		if err != nil {
			return nil, err
		}
		g.profiles = append(g.profiles, p)
	}
	for c := 0; c < 2; c++ {
		g.streams = append(g.streams, newStream(seed, streamChurn+uint64(c)))
	}
	return g, nil
}

func (g *churnGen) cycle(c int) []request {
	s := g.streams[c]
	di := s.r.Intn(len(g.ids))
	var out []request
	if c == 0 {
		p := s.patch(fixtureN, g.profiles[di])
		out = append(out, request{op: "patch", method: http.MethodPatch,
			path: "/v1/deployments/" + g.ids[di], body: p.body(), dep: di, patch: &p})
	}
	return append(out, queryRequest(g.ids[di], di, s.points(churnQueryPoints)))
}

// replica is one clustered fvcd.
type replica struct {
	name, dir, base string
	srv             *server.Server
	http            *httpServer
}

// churnRig is the churn-cluster workload: two peered replicas (state
// dirs, mirroring on, anti-entropy off as in fvcd's default) behind one
// cluster.Router, with four deployments (het and homog × 2 seeds).
type churnRig struct {
	e      *env
	reps   []*replica
	router *cluster.Router
	rt     *http.Transport
	rhttp  *httpServer
	rbase  string
	deps   []*deployment
	gen    *churnGen
	cs     []*client
	sent   []int
	watch  *sizeWatch
}

// patchRecord is one acknowledged PATCH, in the order client 0 sent it.
type patchRecord struct {
	req     uint64 // tracer id, 0 when untraced
	dep     int
	p       patch
	version uint64 // deployment version after the patch, as fvcd answered
	overlay int
	applyNS int64 // spatial replay time (set by verify)
}

func newChurnRig(e *env, dir string) (rig, time.Duration, error) {
	ports, err := freePorts(2)
	if err != nil {
		return nil, 0, err
	}
	names := []string{"a", "b"}
	peers := &cluster.Peers{}
	for i, name := range names {
		peers.Members = append(peers.Members, cluster.Member{Name: name, URL: fmt.Sprintf("http://127.0.0.1:%d", ports[i])})
	}
	r := &churnRig{e: e, sent: make([]int, 2)}
	t0 := time.Now()
	// fvcd's start-up order: construct every replica, then bind and
	// serve. Construction warms an empty replica from a peer snapshot;
	// a peer already bound but not yet serving would hold that fetch
	// until the snapshot client's 30 s timeout, while an unbound peer
	// refuses at once.
	for i, name := range names {
		srv, err := server.New(server.Config{
			StateDir: filepath.Join(dir, name),
			PeerURLs: []string{peers.Members[1-i].URL},
		})
		if err != nil {
			r.close()
			return nil, 0, err
		}
		r.reps = append(r.reps, &replica{name: name, dir: filepath.Join(dir, name), base: peers.Members[i].URL, srv: srv})
	}
	for i, rp := range r.reps {
		ln, err := listen(ports[i])
		if err != nil {
			r.close()
			return nil, 0, err
		}
		rp.http = serve(ln, e.tr.handler("server", rp.srv.Handler()))
	}
	r.rt = &http.Transport{MaxIdleConnsPerHost: 16}
	r.router, err = cluster.NewRouter(cluster.RouterConfig{
		Peers:       peers,
		RegisterKey: server.DeploymentIDFromRequest,
		Client:      &http.Client{Transport: &transport{t: e.tr, base: r.rt}},
	})
	if err != nil {
		r.close()
		return nil, 0, err
	}
	ln, err := listen(0)
	if err != nil {
		r.close()
		return nil, 0, err
	}
	r.rhttp = serve(ln, e.tr.handler("router", r.router.Handler()))
	r.rbase = "http://" + ln.Addr().String()
	fs := fixtures(e.seed, 2)
	ids, err := register(e, r.rbase, fs)
	if err == nil {
		err = waitFor("cluster ready", func() bool { return r.ready(ids) })
	}
	setup := time.Since(t0)
	if err == nil {
		r.deps, err = deploymentsOf(fs, ids)
	}
	if err == nil {
		r.gen, err = newChurnGen(e.seed, r.deps)
	}
	if err != nil {
		r.close()
		return nil, 0, err
	}
	for c := 0; c < 2; c++ {
		r.cs = append(r.cs, &client{e: e, base: r.rbase})
	}
	return r, setup, nil
}

// ready reports whether the router answers /readyz ok and both
// replicas serve every id.
func (r *churnRig) ready(ids []string) bool {
	if !ready(r.e.hc, r.rbase) {
		return false
	}
	for _, rp := range r.reps {
		for _, id := range ids {
			code, _, err := get(r.e.hc, rp.base+"/v1/deployments/"+id)
			if err != nil || code != http.StatusOK {
				return false
			}
		}
	}
	return true
}

func (r *churnRig) close() {
	if r.rhttp != nil {
		r.rhttp.close()
	}
	if r.rt != nil {
		r.rt.CloseIdleConnections()
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	for _, rp := range r.reps {
		if rp.http != nil {
			rp.http.close()
		}
		rp.srv.Shutdown(ctx)
	}
}

func (r *churnRig) clients() int { return len(r.cs) }

func (r *churnRig) cycle(c int, l *opLog) {
	t0 := time.Now()
	ok := true
	for _, q := range r.gen.cycle(c) {
		if q.op == "patch" {
			ok = r.sendPatch(l, q) && ok
			continue
		}
		r.sent[c]++
		ok = sendQuery(r.cs[c], l, q, r.sent[c]%churnSampleEvery == 0) && ok
	}
	if ok && c == 0 {
		l.cycles = append(l.cycles, time.Since(t0))
	}
}

func (r *churnRig) sendPatch(l *opLog, q request) bool {
	body, ok := r.cs[0].call(l, q, http.StatusOK)
	if !ok {
		return false
	}
	var a struct {
		Version uint64 `json:"version"`
		Cameras int    `json:"cameras"`
		Overlay int    `json:"overlay"`
	}
	if err := json.Unmarshal(body, &a); err != nil {
		l.fail("patch: %v", err)
		return false
	}
	if a.Cameras != fixtureN {
		l.fail("patch left %d cameras, want %d", a.Cameras, fixtureN)
		return false
	}
	l.patches = append(l.patches, &patchRecord{req: r.cs[0].lastID, dep: q.dep, p: *q.patch,
		version: a.Version, overlay: a.Overlay})
	return true
}

func (r *churnRig) endToEnd(l *opLog) e2e {
	out := queryE2E(l)
	p := l.lat["patch"]
	out.named = append(out.named,
		namedMetric{"patch_p50_ms", "ms", quantile(p, 0.5), len(p)},
		namedMetric{"patch_p90_ms", "ms", quantile(p, 0.9), len(p)})
	return out
}

// verify replays the PATCH log of every deployment through a fresh
// spatial.MutableIndex, checking each sampled answer against core at
// the version it reports and each PATCH's reported version; then it
// compares final answers through the router with a fresh single-node
// fvcd that replays the same PATCH log.
func (r *churnRig) verify(logs []*opLog, vl *opLog) error {
	var patches []*patchRecord
	var samples []*querySample
	for _, l := range logs {
		patches = append(patches, l.patches...)
		samples = append(samples, l.queries...)
	}
	for di, d := range r.deps {
		var ps []*patchRecord
		for _, p := range patches {
			if p.dep == di {
				ps = append(ps, p)
			}
		}
		var ss []*querySample
		for _, s := range samples {
			if s.dep == di {
				ss = append(ss, s)
			}
		}
		sort.SliceStable(ss, func(i, j int) bool { return ss[i].answer.Version < ss[j].answer.Version })
		r.walk(d, ps, ss, vl)
	}
	return r.finalCheck(patches, vl)
}

// walk advances one deployment's oracle index through its PATCH log,
// checking samples as their versions come up.
func (r *churnRig) walk(d *deployment, ps []*patchRecord, ss []*querySample, vl *opLog) {
	idx := spatial.NewMutableIndex(d.net, spatial.MutableOptions{})
	var version uint64
	next := 0
	checkAt := func(v uint64) {
		for ; next < len(ss) && ss[next].answer.Version <= v; next++ {
			s := ss[next]
			vl.checks++
			bad := ""
			if s.answer.Version != v {
				bad = fmt.Sprintf("version %d never existed", s.answer.Version)
			} else {
				bad = s.check(idx.Snapshot())
			}
			if bad != "" {
				vl.fail("query %s v%d: %s", d.id[:12], s.answer.Version, bad)
			}
		}
	}
	checkAt(version)
	for _, p := range ps {
		reaims := make([]spatial.ReaimOp, len(p.p.reaimIdx))
		for i, ci := range p.p.reaimIdx {
			reaims[i] = spatial.ReaimOp{Index: ci, Orient: p.p.reaimOrient[i]}
		}
		// fvcd applies (and versions) the groups one by one, so a query
		// racing the PATCH may pin the state between two groups.
		groups := []func() (uint64, error){
			func() (uint64, error) { return idx.Reaim(reaims) },
			func() (uint64, error) { return idx.Remove(p.p.remove) },
			func() (uint64, error) { return idx.Add(p.p.add) },
		}
		var err error
		for _, apply := range groups {
			t0 := time.Now()
			version, err = apply()
			p.applyNS += time.Since(t0).Nanoseconds()
			if err != nil {
				break
			}
			checkAt(version)
		}
		vl.checks++
		if err != nil || p.version != version {
			vl.fail("patch %s: fvcd version %d, oracle %d (%v)", d.id[:12], p.version, version, err)
		}
	}
	for ; next < len(ss); next++ {
		vl.checks++
		vl.fail("query %s: version %d beyond the last patch (%d)", d.id[:12], ss[next].answer.Version, version)
	}
}

// finalCheck queries every deployment through the router and compares
// the bytes with a fresh in-process single-node fvcd (no state dir)
// that registered the same recipes and replayed the same PATCH log.
func (r *churnRig) finalCheck(patches []*patchRecord, vl *opLog) error {
	oracle, err := server.New(server.Config{})
	if err != nil {
		return err
	}
	defer oracle.Shutdown(context.Background())
	h := oracle.Handler()
	serve := func(method, path string, body []byte) (int, []byte) {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(method, path, bytes.NewReader(body)))
		return rec.Code, rec.Body.Bytes()
	}
	for _, d := range r.deps {
		if code, body := serve(http.MethodPost, "/v1/deployments", d.registerBody()); code != http.StatusCreated {
			return fmt.Errorf("oracle register: status %d: %s", code, body)
		}
	}
	for _, p := range patches {
		if code, body := serve(http.MethodPatch, "/v1/deployments/"+r.deps[p.dep].id, p.p.body()); code != http.StatusOK {
			return fmt.Errorf("oracle patch: status %d: %s", code, body)
		}
	}
	c := &client{e: r.e, base: r.rbase}
	for di, d := range r.deps {
		q := queryRequest(d.id, di, newStream(r.e.seed, streamFinal+uint64(di)).points(churnQueryPoints))
		q.op = "final"
		got, ok := c.call(vl, q, http.StatusOK)
		if !ok {
			continue
		}
		vl.checks++
		code, want := serve(q.method, q.path, q.body)
		if code != http.StatusOK || !bytes.Equal(got, want) {
			vl.fail("final answer for %s through the router differs from the single-node oracle (status %d)", d.id[:12], code)
		}
	}
	return nil
}

func (r *churnRig) beginTrace() {
	r.watch = watchSizes(20*time.Millisecond, func() []string {
		var out []string
		for _, rp := range r.reps {
			out = append(out, filepath.Join(rp.dir, "deployments.jsonl"))
		}
		return out
	})
}

func (r *churnRig) scrape() (promSample, error) {
	var ps []promSample
	for _, rp := range r.reps {
		p, err := scrape(r.e.hc, rp.base)
		if err != nil {
			return nil, err
		}
		ps = append(ps, p)
	}
	var buf bytes.Buffer
	if err := r.router.Registry().WritePrometheus(&buf); err != nil {
		return nil, err
	}
	return sumProm(append(ps, parseProm(buf.Bytes()))...), nil
}

func (r *churnRig) layers(l *opLog, spans []span, before, after promSample) (map[string]float64, error) {
	r.watch.close()
	m := queryLayers(l, spans, "server")
	m["http.overhead_ms_p50"] = httpOverhead(spans, "router")
	owner := make(map[string]http.Handler)
	for _, rp := range r.reps {
		owner[rp.name] = rp.srv.Handler()
	}
	allocs, bytesPer, err := replayAllocs(func(dep int) http.Handler {
		return owner[r.router.Ring().Owner(r.deps[dep].id)]
	}, l.queries, r.deps)
	if err != nil {
		return nil, err
	}
	m["server.query.allocs_per_req"] = allocs
	m["server.query.alloc_bytes_per_req"] = bytesPer
	m["server.mutate.handler_ms_p50"] = spanQuantile(spans, "server", "mutate", 0.5)
	m["server.mirror.handler_ms_p50"] = spanQuantile(spans, "server", "mirror", 0.5)

	var apply []time.Duration
	var overlay []float64
	for _, p := range l.patches {
		apply = append(apply, time.Duration(p.applyNS))
		overlay = append(overlay, float64(p.overlay))
	}
	m["spatial.mutate_us_p50"] = percentileUS(apply, 0.5)
	m["spatial.overlay_cameras_mean"] = mean(overlay)
	m["spatial.rebuilds"] = delta(before, after, "fvcd_rebuilds_total")
	m["depcache.misses"] = delta(before, after, "fvcd_depcache_misses_total")
	m["depcache.hit_ratio"] = hitRatio(before, after)

	appendUS, perPatch, err := replayJournal(filepath.Join(r.e.dir, "journal-replay"), r.deps, l.patches)
	if err != nil {
		return nil, err
	}
	m["depjournal.append_us_p50"] = appendUS
	m["depjournal.bytes_per_patch"] = perPatch
	m["depjournal.compactions"] = float64(r.watch.shrink)

	forwards := make(map[uint64]time.Duration)
	var fwd []time.Duration
	for _, s := range spans {
		if s.layer == "forward" {
			forwards[s.req] += s.dur()
			fwd = append(fwd, s.dur())
		}
	}
	var self []time.Duration
	for _, s := range spans {
		if s.layer == "router" && s.req != 0 {
			self = append(self, s.dur()-forwards[s.req])
		}
	}
	m["cluster.router.self_ms_p50"] = quantile(self, 0.5)
	m["cluster.forward_ms_p50"] = quantile(fwd, 0.5)
	m["cluster.retries"] = delta(before, after, "fvcd_cluster_retries_total")
	m["cluster.failover_reads"] = delta(before, after, "fvcd_cluster_failover_reads_total")
	m["cluster.mirror.sent"] = delta(before, after, "fvcd_cluster_mirror_sent_total")
	m["cluster.mirror.dropped"] = delta(before, after, "fvcd_cluster_mirror_dropped_total")
	m["cluster.mirror.retries"] = delta(before, after, "fvcd_mirror_retries_total")
	return m, nil
}

// replayJournal appends the deployments' registrations and then up to
// journalReplays of the given PATCHes to a fresh depjournal on the same
// filesystem, one fsynced AppendMutations per PATCH with the records
// fvcd journals for it. It returns the median append time in µs and the
// journal bytes per PATCH.
func replayJournal(dir string, deps []*deployment, patches []*patchRecord) (appendUS, bytesPerPatch float64, err error) {
	if len(patches) == 0 {
		return 0, 0, nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return 0, 0, err
	}
	j, err := depjournal.Open(filepath.Join(dir, "deployments.jsonl"), depjournal.Options{})
	if err != nil {
		return 0, 0, err
	}
	defer j.Close()
	for _, d := range deps {
		if err := j.Append(depjournal.Record{ID: d.id, Profile: d.profile, N: d.n, Seed: d.seed}); err != nil {
			return 0, 0, err
		}
	}
	var times []time.Duration
	var grown int64
	for _, p := range patches[:min(len(patches), journalReplays)] {
		id := deps[p.dep].id
		recs := p.p.records(id, p.version-p.p.versions())
		before := j.Size()
		t0 := time.Now()
		if err := j.AppendMutations(id, recs); err != nil {
			return 0, 0, err
		}
		times = append(times, time.Since(t0))
		grown += j.Size() - before
	}
	return percentileUS(times, 0.5), float64(grown) / float64(len(times)), nil
}

// records is the journal batch fvcd writes for the patch applied at
// deployment version v0: one record per non-empty group, in apply
// order, each stamped with the version it produces.
func (p patch) records(id string, v0 uint64) []depjournal.Record {
	var recs []depjournal.Record
	if len(p.reaimIdx) > 0 {
		ops := make([]depjournal.ReaimOp, len(p.reaimIdx))
		for i, idx := range p.reaimIdx {
			ops[i] = depjournal.ReaimOp{I: idx, Orient: p.reaimOrient[i]}
		}
		recs = append(recs, depjournal.Record{ID: id, Op: depjournal.OpReaim, Reaim: ops})
	}
	if len(p.remove) > 0 {
		recs = append(recs, depjournal.Record{ID: id, Op: depjournal.OpRemove, Remove: p.remove})
	}
	if len(p.add) > 0 {
		cams := make([]depjournal.Camera, len(p.add))
		for i, c := range p.add {
			cams[i] = depjournal.Camera{X: c.Pos.X, Y: c.Pos.Y, Orient: c.Orient,
				Radius: c.Radius, Aperture: c.Aperture, Group: c.Group}
		}
		recs = append(recs, depjournal.Record{ID: id, Op: depjournal.OpAdd, Cameras: cams})
	}
	for i := range recs {
		recs[i].BaseVersion = v0 + uint64(i) + 1
	}
	return recs
}
