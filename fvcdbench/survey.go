package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"path/filepath"
	"time"

	"fullview/internal/core"
	"fullview/internal/deploy"
	"fullview/internal/geom"
)

// jobThetaPi is the angle of the survey-grid job (θ = π/4, on het).
const jobThetaPi = 0.25

// surveyRig is the survey-grid workload: one fvcd with a state dir and
// one client whose cycle is 8 inline /survey requests (het and homog ×
// the θ-list, default dense grid) followed by one survey job for het at
// θ = π/4 awaited on its event stream.
type surveyRig struct {
	e    *env
	s    *single
	deps []*deployment
	gen  surveyGen
	c    *client
	grid int
}

// surveyGen is the survey-grid request stream. It has no randomness
// beyond the fixture seeds behind the ids.
type surveyGen struct{ ids []string }

func (g surveyGen) cycle() []request {
	var out []request
	for di, id := range g.ids {
		for _, tp := range thetasPi {
			out = append(out, request{op: "survey", method: http.MethodPost,
				path: "/v1/deployments/" + id + "/survey", body: surveyBody(tp), shape: fmt.Sprint("survey/", di, "/", tp),
				dep: di, thetaPi: tp})
		}
	}
	return append(out, request{op: "submit", method: http.MethodPost, path: "/v1/jobs",
		body: jobBody(g.ids[0], jobThetaPi), dep: 0, thetaPi: jobThetaPi})
}

func newSurveyRig(e *env, dir string) (rig, time.Duration, error) {
	s, deps, setup, err := bootSingle(e, dir, fixtures(e.seed, 1))
	if err != nil {
		return nil, 0, err
	}
	grid, err := deploy.DenseGridSide(fixtureN)
	if err != nil {
		s.close()
		return nil, 0, err
	}
	return &surveyRig{e: e, s: s, deps: deps, gen: surveyGen{ids: idsOf(deps)},
		c: &client{e: e, base: s.base}, grid: grid}, setup, nil
}

func (r *surveyRig) clients() int { return 1 }
func (r *surveyRig) close()       { r.s.close() }

// surveyAnswer is one inline /survey (or job) result.
type surveyAnswer struct {
	dep     int
	thetaPi float64
	stats   surveyStats
}

type surveyStats struct {
	Points       int     `json:"points"`
	FullView     int     `json:"fullView"`
	Necessary    int     `json:"necessary"`
	Sufficient   int     `json:"sufficient"`
	MinCovering  int     `json:"minCovering"`
	MeanCovering float64 `json:"meanCovering"`
}

func statsOf(s core.RegionStats) surveyStats {
	return surveyStats{Points: s.Points, FullView: s.FullView, Necessary: s.Necessary,
		Sufficient: s.Sufficient, MinCovering: s.MinCovering, MeanCovering: s.MeanCovering}
}

// jobAnswer is one finished survey job.
type jobAnswer struct {
	stats       core.RegionStats
	bands       int
	wall        time.Duration // started → finished, as fvcd reports it
	journalPeak int64         // largest size of the job's journal seen (traced only)
}

// jobSnapshot is the subset of fvcd's job body the benchmark reads.
type jobSnapshot struct {
	ID     string `json:"id"`
	State  string `json:"state"`
	Bands  int    `json:"bands"`
	Result *struct {
		Stats []core.RegionStats `json:"stats"`
	} `json:"result"`
	StartedNS  int64 `json:"startedNs"`
	FinishedNS int64 `json:"finishedNs"`
}

func (r *surveyRig) cycle(_ int, l *opLog) {
	t0 := time.Now()
	ok := true
	reqs := r.gen.cycle()
	for _, q := range reqs[:len(reqs)-1] {
		body, good := r.c.call(l, q, http.StatusOK)
		var a surveyStats
		if good {
			if err := json.Unmarshal(body, &a); err != nil {
				l.fail("survey: %v", err)
				good = false
			}
		}
		if !good {
			ok = false
			continue
		}
		l.points["survey"] += int64(a.Points)
		l.surveys = append(l.surveys, surveyAnswer{dep: q.dep, thetaPi: q.thetaPi, stats: a})
	}
	if r.job(reqs[len(reqs)-1], l) && ok {
		l.cycles = append(l.cycles, time.Since(t0))
	}
}

// job submits the survey job and waits on its SSE stream until fvcd
// closes it at the terminal state; the job's latency runs from submit
// to the final snapshot.
func (r *surveyRig) job(q request, l *opLog) bool {
	t0 := time.Now()
	body, ok := r.c.call(l, q, http.StatusAccepted)
	if !ok {
		return false
	}
	var sub jobSnapshot
	if err := json.Unmarshal(body, &sub); err != nil {
		l.fail("job submit: %v", err)
		return false
	}
	var watch *sizeWatch
	journal := filepath.Join(r.s.jobsDir(), sub.ID+".jsonl")
	if r.e.tr.on.Load() {
		watch = watchSizes(500*time.Microsecond, func() []string { return []string{journal} })
	}
	body, ok = r.c.call(l, request{op: "events", method: http.MethodGet, path: "/v1/jobs/" + sub.ID + "/events"}, http.StatusOK)
	lat := time.Since(t0)
	var peak int64
	if watch != nil {
		watch.close()
		peak = watch.peak[journal]
	}
	if !ok {
		return false
	}
	snap, err := lastSnapshot(body)
	switch {
	case err != nil:
		l.fail("job %s: %v", sub.ID, err)
		return false
	case snap.State != "done" || snap.Result == nil || len(snap.Result.Stats) != 1:
		l.fail("job %s ended %q", sub.ID, snap.State)
		return false
	}
	l.lat["job"] = append(l.lat["job"], lat)
	l.points["job"] += int64(snap.Result.Stats[0].Points)
	l.jobs = append(l.jobs, jobAnswer{stats: snap.Result.Stats[0], bands: snap.Bands,
		wall: time.Duration(snap.FinishedNS - snap.StartedNS), journalPeak: peak})
	return true
}

// lastSnapshot decodes the final "snapshot" event of an SSE body.
func lastSnapshot(body []byte) (jobSnapshot, error) {
	const marker = "event: snapshot\ndata: "
	i := bytes.LastIndex(body, []byte(marker))
	if i < 0 {
		return jobSnapshot{}, fmt.Errorf("no snapshot event in %d-byte stream", len(body))
	}
	data := body[i+len(marker):]
	if j := bytes.IndexByte(data, '\n'); j >= 0 {
		data = data[:j]
	}
	var s jobSnapshot
	err := json.Unmarshal(data, &s)
	return s, err
}

func (r *surveyRig) endToEnd(l *opLog) e2e {
	pts := l.points["survey"] + l.points["job"]
	pps := float64(pts) / l.wall.Seconds()
	return e2e{
		evalP50:    shapeP50(l),
		evalTail:   quantile(l.lat["survey"], 0.9),
		pointsPerS: pps,
		cycleP50:   quantile(l.cycles, 0.5),
		named: []namedMetric{
			{"survey_p50_ms", "ms", quantile(l.lat["survey"], 0.5), len(l.lat["survey"])},
			{"survey_p90_ms", "ms", quantile(l.lat["survey"], 0.9), len(l.lat["survey"])},
			{"job_p50_ms", "ms", quantile(l.lat["job"], 0.5), len(l.lat["job"])},
			{"grid_points_per_s", "points/s", pps, int(pts)},
		},
	}
}

// verify checks every inline survey against core.Checker.SurveyRegion
// on the benchmark's own copy of the network, and every job result
// against the inline survey of the same θ and grid, to the exact
// integer.
func (r *surveyRig) verify(logs []*opLog, vl *opLog) error {
	pts, err := deploy.GridPoints(geom.UnitTorus, r.grid)
	if err != nil {
		return err
	}
	type key struct {
		dep     int
		thetaPi float64
	}
	oracle := make(map[key]core.RegionStats)
	want := func(k key) core.RegionStats {
		if s, ok := oracle[k]; ok {
			return s
		}
		c, err := core.NewChecker(r.deps[k.dep].net, radians(k.thetaPi))
		if err != nil {
			panic(err) // θ-list and fixtures are constants: a bug, not input
		}
		oracle[k] = c.SurveyRegion(pts)
		return oracle[k]
	}
	var inline *surveyStats
	for _, l := range logs {
		for _, a := range l.surveys {
			vl.checks++
			if w := statsOf(want(key{a.dep, a.thetaPi})); a.stats != w {
				vl.fail("survey %s θ=%gπ: got %+v, oracle %+v", r.deps[a.dep].name, a.thetaPi, a.stats, w)
			}
			if inline == nil && a.dep == 0 && a.thetaPi == jobThetaPi {
				inline = &a.stats
			}
		}
	}
	for _, l := range logs {
		for _, j := range l.jobs {
			vl.checks++
			switch {
			case inline == nil:
				vl.fail("job: no inline survey of the same θ and grid answered")
			case statsOf(j.stats) != *inline || j.bands != r.grid:
				vl.fail("job: got %+v over %d bands, inline survey %+v", statsOf(j.stats), j.bands, *inline)
			}
		}
	}
	return nil
}

func (r *surveyRig) beginTrace() {}

// layers reports the survey-grid per-layer figures of the traced phase.
func (r *surveyRig) layers(l *opLog, spans []span, before, after promSample) (map[string]float64, error) {
	m := map[string]float64{
		"server.survey.handler_ms_p50": spanQuantile(spans, "server", "survey", 0.5),
		"http.overhead_ms_p50":         httpOverhead(spans, "server"),
		"depcache.misses":              delta(before, after, "fvcd_depcache_misses_total"),
		"depcache.hit_ratio":           hitRatio(before, after),
	}
	rep, err := replaySurveys(r.deps, r.grid)
	if err != nil {
		return nil, err
	}
	n := float64(rep.points)
	m["core.survey_batch_ns_per_point"] = rep.batchNS / n
	m["sweep.self_ns_per_point"] = (rep.t1NS - rep.batchNS) / n
	m["sweep.scaling_efficiency"] = rep.t1NS / (2 * rep.t2NS)
	m["core.covering_per_point"] = rep.covering / n
	if len(l.jobs) > 0 {
		var bands, wall, peak float64
		for _, j := range l.jobs {
			bands += float64(j.bands)
			wall += float64(j.wall)
			peak += float64(j.journalPeak)
		}
		jobs := float64(len(l.jobs))
		// Each band observes its wall time divided by its points (one
		// grid row), so the histogram sum times the row length is the
		// summed band compute.
		compute := delta(before, after, "fvcd_band_ns_per_point_sum", `source="job"`) * float64(r.grid)
		m["jobs.bands"] = bands / jobs
		m["jobs.journal_ms_per_job"] = (wall - compute) / jobs / 1e6
		m["jobs.journal_bytes_per_job"] = peak / jobs
	}
	return m, nil
}

func (r *surveyRig) scrape() (promSample, error) { return scrape(r.e.hc, r.s.base) }

func idsOf(deps []*deployment) []string {
	ids := make([]string, len(deps))
	for i, d := range deps {
		ids[i] = d.id
	}
	return ids
}
