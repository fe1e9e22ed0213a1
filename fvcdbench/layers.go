package main

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"slices"
	"time"

	"fullview/internal/core"
	"fullview/internal/deploy"
	"fullview/internal/geom"
	"fullview/internal/spatial"
	"fullview/internal/sweep"
)

// layerMetric is one per-layer metric of the traced run.
type layerMetric struct{ name, unit string }

// layerMetrics is every per-layer metric, in print order. A workload
// reports 0 for a layer it leaves idle (no spans, no calls, no counts).
var layerMetrics = []layerMetric{
	{"server.query.self_ns_per_point", "ns/point"},
	{"server.query.allocs_per_req", "allocs/req"},
	{"server.query.alloc_bytes_per_req", "bytes/req"},
	{"server.query.resp_bytes_per_point", "bytes/point"},
	{"server.survey.handler_ms_p50", "ms"},
	{"server.mutate.handler_ms_p50", "ms"},
	{"server.mirror.handler_ms_p50", "ms"},
	{"http.overhead_ms_p50", "ms"},
	{"core.evaluate_ns_per_point", "ns/point"},
	{"core.survey_batch_ns_per_point", "ns/point"},
	{"core.covering_per_point", "cameras/point"},
	{"sweep.self_ns_per_point", "ns/point"},
	{"sweep.scaling_efficiency", "ratio"},
	{"jobs.bands", "count"},
	{"jobs.journal_ms_per_job", "ms"},
	{"jobs.journal_bytes_per_job", "bytes"},
	{"spatial.mutate_us_p50", "us"},
	{"spatial.overlay_cameras_mean", "cameras"},
	{"spatial.rebuilds", "count"},
	{"depcache.hit_ratio", "ratio"},
	{"depcache.misses", "count"},
	{"depjournal.append_us_p50", "us"},
	{"depjournal.bytes_per_patch", "bytes"},
	{"depjournal.compactions", "count"},
	{"cluster.router.self_ms_p50", "ms"},
	{"cluster.forward_ms_p50", "ms"},
	{"cluster.retries", "count"},
	{"cluster.failover_reads", "count"},
	{"cluster.mirror.sent", "count"},
	{"cluster.mirror.dropped", "count"},
	{"cluster.mirror.retries", "count"},
	{"tracing.overhead_pct", "%"},
}

// spanQuantile is the q-quantile duration in ms of the spans of one
// layer and route.
func spanQuantile(spans []span, layer, route string, q float64) float64 {
	var d []time.Duration
	for _, s := range spans {
		if s.layer == layer && s.route == route {
			d = append(d, s.dur())
		}
	}
	return quantile(d, q)
}

// byRequest indexes the spans of one layer by request id.
func byRequest(spans []span, layer string) map[uint64]span {
	out := make(map[uint64]span)
	for _, s := range spans {
		if s.layer == layer && s.req != 0 {
			out[s.req] = s
		}
	}
	return out
}

// httpOverhead is the median of client span minus the span of the
// first fvcd layer the request reached (server, or router in a
// cluster).
func httpOverhead(spans []span, first string) float64 {
	hop := byRequest(spans, first)
	var d []time.Duration
	for _, s := range spans {
		if s.layer != "client" {
			continue
		}
		if h, ok := hop[s.req]; ok {
			d = append(d, s.dur()-h.dur())
		}
	}
	return quantile(d, 0.5)
}

// hitRatio is the deployment-cache hit ratio over a scrape interval.
func hitRatio(before, after promSample) float64 {
	h := delta(before, after, "fvcd_depcache_hits_total")
	m := delta(before, after, "fvcd_depcache_misses_total")
	if h+m == 0 {
		return 0
	}
	return h / (h + m)
}

// queryLayers derives the /query figures of a traced phase: handler
// self time against the core replay of the same sampled requests, and
// the replay's own cost and covering count. handlerLayer names the
// spans that time the replica's handler.
func queryLayers(l *opLog, spans []span, handlerLayer string) map[string]float64 {
	handler := byRequest(spans, handlerLayer)
	var handlerNS, evalNS, covered, pts float64
	for _, s := range l.queries {
		h, ok := handler[s.req]
		if !ok {
			continue
		}
		handlerNS += float64(h.dur())
		evalNS += float64(s.evalNS)
		covered += float64(s.covered)
		pts += float64(len(s.pts))
	}
	m := map[string]float64{"http.overhead_ms_p50": httpOverhead(spans, "server")}
	if pts > 0 {
		m["server.query.self_ns_per_point"] = (handlerNS - evalNS) / pts
		m["core.evaluate_ns_per_point"] = evalNS / pts
		m["core.covering_per_point"] = covered / pts
	}
	if n := l.points["query"]; n > 0 {
		m["server.query.resp_bytes_per_point"] = float64(l.respBytes["query"]) / float64(n)
	}
	return m
}

// allocReplays is how many sampled /query requests are replayed
// in-process to count allocations.
const allocReplays = 16

// replayAllocs replays sampled /query requests through h in-process
// (httptest recorder, no network) between runtime.MemStats reads and
// returns allocations and allocated bytes per request.
func replayAllocs(handlerFor func(dep int) http.Handler, samples []*querySample, deps []*deployment) (allocs, allocBytes float64, err error) {
	var reqs []*http.Request
	var hs []http.Handler
	for _, s := range samples {
		if len(reqs) == allocReplays {
			break
		}
		q := queryRequest(deps[s.dep].id, s.dep, s.pts)
		reqs = append(reqs, httptest.NewRequest(q.method, q.path, bytes.NewReader(q.body)))
		hs = append(hs, handlerFor(s.dep))
	}
	if len(reqs) == 0 {
		return 0, 0, nil
	}
	recs := make([]*httptest.ResponseRecorder, len(reqs))
	for i := range recs {
		recs[i] = httptest.NewRecorder()
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i, r := range reqs {
		hs[i].ServeHTTP(recs[i], r)
	}
	runtime.ReadMemStats(&after)
	for _, rec := range recs {
		if rec.Code != http.StatusOK {
			return 0, 0, fmt.Errorf("alloc replay: status %d: %.200s", rec.Code, rec.Body.Bytes())
		}
	}
	n := float64(len(reqs))
	return float64(after.Mallocs-before.Mallocs) / n, float64(after.TotalAlloc-before.TotalAlloc) / n, nil
}

// surveyReplay is the survey-grid grids replayed through core and sweep.
type surveyReplay struct {
	batchNS, t1NS, t2NS float64 // summed over the grids (best of surveyReps each)
	points              int
	covering            float64 // Σ covering count over the grid points
}

// surveyReps is how often each replay is timed; the fastest counts, as
// the replays run in a quiet process and slower repeats are noise.
const surveyReps = 5

// replaySurveys replays every (deployment, θ) dense-grid survey of the
// survey-grid cycle three ways: core.Checker.SurveyBatch over
// sweep.BatchSize row-major chunks on one thread, and
// SurveyRegionContext at 1 and at 2 workers.
func replaySurveys(deps []*deployment, grid int) (surveyReplay, error) {
	var out surveyReplay
	pts, err := deploy.GridPoints(geom.UnitTorus, grid)
	if err != nil {
		return out, err
	}
	ctx := context.Background()
	for _, d := range deps {
		src := spatial.NewMutableIndex(d.net, spatial.MutableOptions{}).Snapshot()
		for _, tp := range thetasPi {
			c, err := core.NewCheckerFromSource(src, radians(tp))
			if err != nil {
				return out, err
			}
			var batch, t1, t2 []float64
			var stats core.RegionStats
			for rep := 0; rep < surveyReps; rep++ {
				t0 := time.Now()
				var acc core.RegionStats
				for i := 0; i < len(pts); i += sweep.BatchSize {
					acc = acc.Merge(c.SurveyBatch(pts[i:min(i+sweep.BatchSize, len(pts))]))
				}
				batch = append(batch, float64(time.Since(t0)))
				stats = acc
				for _, w := range []int{1, 2} {
					t0 = time.Now()
					if _, err := c.SurveyRegionContext(ctx, pts, w); err != nil {
						return out, err
					}
					if w == 1 {
						t1 = append(t1, float64(time.Since(t0)))
					} else {
						t2 = append(t2, float64(time.Since(t0)))
					}
				}
			}
			out.batchNS += slices.Min(batch)
			out.t1NS += slices.Min(t1)
			out.t2NS += slices.Min(t2)
			out.points += len(pts)
			out.covering += stats.MeanCovering * float64(stats.Points)
		}
	}
	return out, nil
}

func median(xs []float64) float64 { return quantileF(xs, 0.5) }

// percentileUS is the q-quantile of durations in µs.
func percentileUS(d []time.Duration, q float64) float64 { return quantile(d, q) * 1e3 }
