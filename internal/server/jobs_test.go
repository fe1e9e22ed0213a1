package server

// Job-API suite: drives the async job endpoints over the handler and
// asserts the crash-safety contract end to end — a job's result is
// bit-identical to the synchronous library sweep, a kill-and-restart
// on the same state dir resumes an interrupted job from its last
// journaled band, cancellation and TTL expiry behave per spec, and the
// chaos faults (band panic, job-journal write failure, replay failure)
// degrade exactly as documented while the daemon keeps serving.

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"fullview/internal/core"
	"fullview/internal/deploy"
	"fullview/internal/experiment"
	"fullview/internal/faultinject"
	"fullview/internal/geom"
	"fullview/internal/jobs"
	"fullview/internal/sensor"
)

// mustNewStopped builds a Server and schedules its Shutdown, so job
// workers never outlive the test.
func mustNewStopped(t *testing.T, cfg Config) *Server {
	t.Helper()
	srv := mustNew(t, cfg)
	t.Cleanup(func() { _ = srv.Shutdown(context.Background()) })
	return srv
}

// registerNet registers a network and returns its deployment id.
func registerNet(t *testing.T, h http.Handler, net *sensor.Network) string {
	t.Helper()
	rec := do(t, h, "POST", "/v1/deployments", camerasBody(t, net))
	if rec.Code != http.StatusCreated && rec.Code != http.StatusOK {
		t.Fatalf("register: status %d: %s", rec.Code, rec.Body.String())
	}
	var out registerResponse
	decode(t, rec, &out)
	return out.ID
}

// submitJob posts a job request and returns the accepted body.
func submitJob(t *testing.T, h http.Handler, req jobSubmitRequest) jobResponse {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	rec := do(t, h, "POST", "/v1/jobs", body)
	if rec.Code != http.StatusAccepted {
		t.Fatalf("submit: status %d: %s", rec.Code, rec.Body.String())
	}
	var out jobResponse
	decode(t, rec, &out)
	if out.ID == "" || out.State == "" {
		t.Fatalf("submit body missing id/state: %s", rec.Body.String())
	}
	return out
}

// getJob polls one job id, failing on a non-200.
func getJob(t *testing.T, h http.Handler, id string) jobResponse {
	t.Helper()
	rec := do(t, h, "GET", "/v1/jobs/"+id, nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("get job %s: status %d: %s", id, rec.Code, rec.Body.String())
	}
	var out jobResponse
	decode(t, rec, &out)
	return out
}

// pollJob polls until the job reaches a terminal state.
func pollJob(t *testing.T, h http.Handler, id string) jobResponse {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		body := getJob(t, h, id)
		if jobs.State(body.State).Terminal() {
			return body
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s stuck in %q (%d/%d bands)", id, body.State, body.BandsDone, body.Bands)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// pollJobUntil polls until cond holds on the job body.
func pollJobUntil(t *testing.T, h http.Handler, id string, cond func(jobResponse) bool) jobResponse {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		body := getJob(t, h, id)
		if cond(body) {
			return body
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s: condition never held (state %q, %d/%d bands)",
				id, body.State, body.BandsDone, body.Bands)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// libStats is the uninterrupted in-process reference: one RegionStats
// per θ over the k×k unit-torus grid, via the library's single-threaded
// sweep.
func libStats(t *testing.T, net *sensor.Network, thetasPi []float64, grid int) []core.RegionStats {
	t.Helper()
	points, err := deploy.GridPoints(geom.UnitTorus, grid)
	if err != nil {
		t.Fatal(err)
	}
	stats := make([]core.RegionStats, len(thetasPi))
	for i, tp := range thetasPi {
		checker, err := core.NewChecker(net, tp*math.Pi)
		if err != nil {
			t.Fatal(err)
		}
		stats[i] = checker.SurveyRegion(points)
	}
	return stats
}

// TestJobSurveyMatchesLibrary submits a survey job and asserts the
// asynchronous, band-partitioned result is bit-identical (struct
// equality on the exact-integer RegionStats) to the library's
// synchronous whole-grid sweep.
func TestJobSurveyMatchesLibrary(t *testing.T) {
	srv := mustNewStopped(t, Config{})
	h := srv.Handler()
	waitReadyz(t, h, ReadyOK)
	net := testNetwork(t, 150, 11)
	id := registerNet(t, h, net)

	job := submitJob(t, h, jobSubmitRequest{Kind: "survey", Deployment: id, ThetaPi: 0.25, Grid: 24})
	if job.Bands != 24 || job.Grid != 24 {
		t.Fatalf("job bands/grid = %d/%d, want 24/24", job.Bands, job.Grid)
	}
	final := pollJob(t, h, job.ID)
	if final.State != "done" || final.Result == nil {
		t.Fatalf("final state %q (error %q), want done with result", final.State, final.Error)
	}
	want := libStats(t, net, []float64{0.25}, 24)
	if len(final.Result.Stats) != 1 || final.Result.Stats[0] != want[0] {
		t.Fatalf("job result %+v != library %+v", final.Result.Stats, want)
	}
	if line := metricLine(t, h, `fvcd_jobs_total{kind="survey",state="done"}`); !strings.HasSuffix(line, " 1") {
		t.Fatalf("done counter line = %q, want value 1", line)
	}
	if line := metricLine(t, h, "fvcd_job_bands_total"); !strings.HasSuffix(line, " 24") {
		t.Fatalf("bands counter line = %q, want value 24", line)
	}
}

// TestJobSweepMatchesLibrary runs a multi-θ sweep job and checks every
// per-angle slot against the library.
func TestJobSweepMatchesLibrary(t *testing.T) {
	srv := mustNewStopped(t, Config{})
	h := srv.Handler()
	waitReadyz(t, h, ReadyOK)
	net := testNetwork(t, 120, 5)
	id := registerNet(t, h, net)

	thetas := []float64{0.2, 0.3, 0.5}
	job := submitJob(t, h, jobSubmitRequest{Kind: "sweep", Deployment: id, ThetasPi: thetas, Grid: 12})
	if job.Bands != 3*12 {
		t.Fatalf("sweep bands = %d, want 36", job.Bands)
	}
	final := pollJob(t, h, job.ID)
	if final.State != "done" || final.Result == nil {
		t.Fatalf("final state %q (error %q), want done with result", final.State, final.Error)
	}
	want := libStats(t, net, thetas, 12)
	for i := range thetas {
		if final.Result.Stats[i] != want[i] {
			t.Fatalf("slot %d: job %+v != library %+v", i, final.Result.Stats[i], want[i])
		}
	}
}

// TestJobSubmitRejections walks the submit-time validation: every bad
// request must fail fast with the right status, before any compute.
func TestJobSubmitRejections(t *testing.T) {
	srv := mustNewStopped(t, Config{MaxThetas: 4})
	h := srv.Handler()
	waitReadyz(t, h, ReadyOK)
	id := registerNet(t, h, testNetwork(t, 50, 3))

	cases := []struct {
		name string
		req  jobSubmitRequest
		code int
	}{
		{"unknown kind", jobSubmitRequest{Kind: "mosaic", Deployment: id, ThetaPi: 0.25, Grid: 8}, http.StatusBadRequest},
		{"unknown deployment", jobSubmitRequest{Kind: "survey", Deployment: "dep-nope", ThetaPi: 0.25, Grid: 8}, http.StatusNotFound},
		{"both theta forms", jobSubmitRequest{Kind: "survey", Deployment: id, ThetaPi: 0.25, ThetasPi: []float64{0.5}, Grid: 8}, http.StatusBadRequest},
		{"no theta", jobSubmitRequest{Kind: "survey", Deployment: id, Grid: 8}, http.StatusBadRequest},
		{"sweep needs one theta each band", jobSubmitRequest{Kind: "sweep", Deployment: id, ThetasPi: []float64{0.25, 0}, Grid: 8}, http.StatusBadRequest},
		{"too many thetas", jobSubmitRequest{Kind: "sweep", Deployment: id, ThetasPi: []float64{0.1, 0.2, 0.3, 0.4, 0.5}, Grid: 8}, http.StatusBadRequest},
		{"grid over cap", jobSubmitRequest{Kind: "survey", Deployment: id, ThetaPi: 0.25, Grid: 400}, http.StatusBadRequest},
	}
	for _, tc := range cases {
		body, err := json.Marshal(tc.req)
		if err != nil {
			t.Fatal(err)
		}
		rec := do(t, h, "POST", "/v1/jobs", body)
		if rec.Code != tc.code {
			t.Errorf("%s: status %d, want %d (%s)", tc.name, rec.Code, tc.code, rec.Body.String())
		}
	}
}

// TestJobCancelLifecycle pins the worker pool on a fault gate and walks
// the cancellation edges: a queued job cancels synchronously, cancel is
// idempotent, a running job cancels once its band unblocks, and unknown
// ids answer 404 on both GET and DELETE.
func TestJobCancelLifecycle(t *testing.T) {
	defer faultinject.Reset()
	srv := mustNewStopped(t, Config{JobConcurrency: 1, JobQueue: 8})
	h := srv.Handler()
	waitReadyz(t, h, ReadyOK)
	id := registerNet(t, h, testNetwork(t, 60, 9))

	gate := make(chan struct{})
	remove := faultinject.Set(faultinject.JobBand, func() error {
		<-gate
		return nil
	})
	defer remove()

	// job1 occupies the single survey worker, blocked inside band 0.
	job1 := submitJob(t, h, jobSubmitRequest{Kind: "survey", Deployment: id, ThetaPi: 0.25, Grid: 6})
	pollJobUntil(t, h, job1.ID, func(b jobResponse) bool { return b.State == "running" })

	// job2 never leaves the queue: cancelling it is synchronous.
	job2 := submitJob(t, h, jobSubmitRequest{Kind: "survey", Deployment: id, ThetaPi: 0.25, Grid: 6})
	rec := do(t, h, "DELETE", "/v1/jobs/"+job2.ID, nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("cancel queued: status %d: %s", rec.Code, rec.Body.String())
	}
	var cancelled jobResponse
	decode(t, rec, &cancelled)
	if cancelled.State != "cancelled" {
		t.Fatalf("queued job cancel state = %q, want cancelled", cancelled.State)
	}

	// Double-cancel is an idempotent re-read of the terminal body.
	rec = do(t, h, "DELETE", "/v1/jobs/"+job2.ID, nil)
	var again jobResponse
	decode(t, rec, &again)
	if rec.Code != http.StatusOK || again.State != "cancelled" || again.FinishedNS != cancelled.FinishedNS {
		t.Fatalf("double cancel: status %d state %q finished %d, want 200/cancelled/%d",
			rec.Code, again.State, again.FinishedNS, cancelled.FinishedNS)
	}

	// Cancelling the running job takes effect when its band unblocks.
	rec = do(t, h, "DELETE", "/v1/jobs/"+job1.ID, nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("cancel running: status %d: %s", rec.Code, rec.Body.String())
	}
	remove()
	close(gate)
	if final := pollJob(t, h, job1.ID); final.State != "cancelled" {
		t.Fatalf("running job final state = %q, want cancelled", final.State)
	}

	if rec := do(t, h, "GET", "/v1/jobs/job-nope", nil); rec.Code != http.StatusNotFound {
		t.Fatalf("GET unknown job: status %d, want 404", rec.Code)
	}
	if rec := do(t, h, "DELETE", "/v1/jobs/job-nope", nil); rec.Code != http.StatusNotFound {
		t.Fatalf("DELETE unknown job: status %d, want 404", rec.Code)
	}
}

// TestJobTTLExpiry lets a done job's retention TTL lapse and asserts
// the id answers 410 Gone — the distinct "existed, collected" signal.
func TestJobTTLExpiry(t *testing.T) {
	srv := mustNewStopped(t, Config{JobTTL: 20 * time.Millisecond})
	h := srv.Handler()
	waitReadyz(t, h, ReadyOK)
	id := registerNet(t, h, testNetwork(t, 40, 2))

	job := submitJob(t, h, jobSubmitRequest{Kind: "survey", Deployment: id, ThetaPi: 0.25, Grid: 4})
	pollJob(t, h, job.ID)

	deadline := time.Now().Add(10 * time.Second)
	for {
		rec := do(t, h, "GET", "/v1/jobs/"+job.ID, nil)
		if rec.Code == http.StatusGone {
			break
		}
		if rec.Code != http.StatusOK {
			t.Fatalf("expired job: status %d, want 200 then 410: %s", rec.Code, rec.Body.String())
		}
		if time.Now().After(deadline) {
			t.Fatal("job never expired to 410")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestJobQueueFull saturates a depth-1 queue behind a blocked worker
// and asserts the third submit sheds with 429 and a Retry-After hint.
func TestJobQueueFull(t *testing.T) {
	defer faultinject.Reset()
	srv := mustNewStopped(t, Config{JobConcurrency: 1, JobQueue: 1})
	h := srv.Handler()
	waitReadyz(t, h, ReadyOK)
	id := registerNet(t, h, testNetwork(t, 60, 4))

	gate := make(chan struct{})
	remove := faultinject.Set(faultinject.JobBand, func() error {
		<-gate
		return nil
	})
	defer remove()

	running := submitJob(t, h, jobSubmitRequest{Kind: "survey", Deployment: id, ThetaPi: 0.25, Grid: 6})
	pollJobUntil(t, h, running.ID, func(b jobResponse) bool { return b.State == "running" })
	submitJob(t, h, jobSubmitRequest{Kind: "survey", Deployment: id, ThetaPi: 0.25, Grid: 6})

	body, _ := json.Marshal(jobSubmitRequest{Kind: "survey", Deployment: id, ThetaPi: 0.25, Grid: 6})
	rec := do(t, h, "POST", "/v1/jobs", body)
	if rec.Code != http.StatusTooManyRequests {
		t.Fatalf("third submit: status %d, want 429: %s", rec.Code, rec.Body.String())
	}
	if rec.Header().Get("Retry-After") == "" {
		t.Fatal("429 without a Retry-After header")
	}
	remove()
	close(gate)
}

// TestInlineSurveyTimeoutPointsAtJobs pins satellite #1: an inline
// survey that outlives its request deadline answers 504 with the
// machine-readable retry_as_job hint naming the job endpoint.
func TestInlineSurveyTimeoutPointsAtJobs(t *testing.T) {
	srv := mustNewStopped(t, Config{SurveyTimeout: time.Nanosecond})
	h := srv.Handler()
	waitReadyz(t, h, ReadyOK)
	id := registerNet(t, h, testNetwork(t, 80, 6))

	body, _ := json.Marshal(surveyRequest{ThetaPi: 0.25, Grid: 32})
	rec := do(t, h, "POST", "/v1/deployments/"+id+"/survey", body)
	if rec.Code != http.StatusGatewayTimeout {
		t.Fatalf("survey under 1ns deadline: status %d, want 504: %s", rec.Code, rec.Body.String())
	}
	var e errorResponse
	decode(t, rec, &e)
	if !e.RetryAsJob || e.Jobs != "/v1/jobs" {
		t.Fatalf("504 body = %+v, want retry_as_job=true jobs=/v1/jobs", e)
	}
}

// TestJobPanicFailsOnlyThatJob injects a band panic and asserts the
// containment contract: the poisoned job fails with a structured error,
// the daemon keeps answering, and the next job completes normally.
func TestJobPanicFailsOnlyThatJob(t *testing.T) {
	defer faultinject.Reset()
	srv := mustNewStopped(t, Config{})
	h := srv.Handler()
	waitReadyz(t, h, ReadyOK)
	net := testNetwork(t, 60, 8)
	id := registerNet(t, h, net)

	remove := faultinject.Set(faultinject.JobPanic, func() error {
		panic("injected job chaos")
	})
	defer remove()

	job := submitJob(t, h, jobSubmitRequest{Kind: "survey", Deployment: id, ThetaPi: 0.25, Grid: 6})
	final := pollJob(t, h, job.ID)
	if final.State != "failed" || !strings.Contains(final.Error, "panic in band") {
		t.Fatalf("panicked job: state %q error %q, want failed with panic error", final.State, final.Error)
	}
	if line := metricLine(t, h, `fvcd_jobs_total{kind="survey",state="failed"}`); !strings.HasSuffix(line, " 1") {
		t.Fatalf("failed counter line = %q, want value 1", line)
	}

	// The daemon survived: health answers and a fresh job completes once
	// the fault is disarmed.
	if rec := do(t, h, "GET", "/healthz", nil); rec.Code != http.StatusOK {
		t.Fatalf("healthz after panic: status %d", rec.Code)
	}
	remove()
	job2 := submitJob(t, h, jobSubmitRequest{Kind: "survey", Deployment: id, ThetaPi: 0.25, Grid: 6})
	if final := pollJob(t, h, job2.ID); final.State != "done" {
		t.Fatalf("post-panic job: state %q (error %q), want done", final.State, final.Error)
	}
}

// TestJobJournalFaultRunsMemoryOnly arms the job-journal write fault on
// a durable server and asserts the degradation contract: submissions
// still succeed, the job completes memory-only (durable=false) with a
// correct result, /readyz reports degraded, and the next successful
// journal write heals readiness.
func TestJobJournalFaultRunsMemoryOnly(t *testing.T) {
	defer faultinject.Reset()
	srv := mustNewStopped(t, Config{StateDir: t.TempDir()})
	h := srv.Handler()
	waitReadyz(t, h, ReadyOK)
	net := testNetwork(t, 60, 10)
	id := registerNet(t, h, net)

	remove := faultinject.Set(faultinject.JobJournalWrite, faultinject.Error(errors.New("disk gone")))
	defer remove()

	job := submitJob(t, h, jobSubmitRequest{Kind: "survey", Deployment: id, ThetaPi: 0.25, Grid: 8})
	waitReadyz(t, h, ReadyDegraded)
	final := pollJob(t, h, job.ID)
	if final.State != "done" || final.Durable {
		t.Fatalf("degraded job: state %q durable %v, want done memory-only", final.State, final.Durable)
	}
	want := libStats(t, net, []float64{0.25}, 8)
	if final.Result == nil || final.Result.Stats[0] != want[0] {
		t.Fatalf("memory-only result %+v != library %+v", final.Result, want)
	}

	remove()
	job2 := submitJob(t, h, jobSubmitRequest{Kind: "survey", Deployment: id, ThetaPi: 0.25, Grid: 8})
	if final := pollJob(t, h, job2.ID); final.State != "done" || !final.Durable {
		t.Fatalf("healed job: state %q durable %v, want done durable", final.State, final.Durable)
	}
	waitReadyz(t, h, ReadyOK)
}

// TestJobReplayFaultStartsEmpty injects a replay failure at startup:
// the daemon must come up serving (no restored jobs) rather than crash.
func TestJobReplayFaultStartsEmpty(t *testing.T) {
	defer faultinject.Reset()
	remove := faultinject.Set(faultinject.JobReplay, faultinject.Error(errors.New("replay refused")))
	defer remove()
	srv := mustNewStopped(t, Config{StateDir: t.TempDir()})
	h := srv.Handler()
	waitReadyz(t, h, ReadyOK)
	remove()

	id := registerNet(t, h, testNetwork(t, 40, 12))
	job := submitJob(t, h, jobSubmitRequest{Kind: "survey", Deployment: id, ThetaPi: 0.25, Grid: 4})
	if final := pollJob(t, h, job.ID); final.State != "done" {
		t.Fatalf("job after replay fault: state %q, want done", final.State)
	}
}

// TestJobResumeAfterRestart is the keystone crash test: a throttled
// survey job is interrupted mid-run by a shutdown (which, like a kill
// -9, writes no terminal record), and a second server on the same state
// dir must resume it from the last journaled band and finish with a
// result bit-identical to an uninterrupted run and to the library.
func TestJobResumeAfterRestart(t *testing.T) {
	dir := t.TempDir()
	net := testNetwork(t, 100, 13)

	srv1 := mustNew(t, Config{StateDir: dir, JobThrottle: 25 * time.Millisecond})
	h1 := srv1.Handler()
	waitReadyz(t, h1, ReadyOK)
	id := registerNet(t, h1, net)
	job := submitJob(t, h1, jobSubmitRequest{Kind: "survey", Deployment: id, ThetaPi: 0.25, Grid: 10})
	if !job.Durable {
		t.Fatal("journaled server accepted a non-durable job")
	}
	pollJobUntil(t, h1, job.ID, func(b jobResponse) bool { return b.BandsDone >= 2 })
	if err := srv1.Shutdown(t.Context()); err != nil {
		t.Fatalf("shutdown: %v", err)
	}

	// Restart on the same state dir, unthrottled. The deployment revives
	// from the deployment journal and the job from its own journal.
	srv2 := mustNewStopped(t, Config{StateDir: dir})
	h2 := srv2.Handler()
	waitReadyz(t, h2, ReadyOK)
	final := pollJob(t, h2, job.ID)
	if final.State != "done" || final.Result == nil {
		t.Fatalf("resumed job: state %q (error %q), want done with result", final.State, final.Error)
	}
	if !final.Resumed {
		t.Fatal("finished job does not report resumed=true")
	}
	line := metricLine(t, h2, "fvcd_job_resume_total")
	if line != "fvcd_job_resume_total 1" {
		t.Fatalf("resume counter line = %q, want fvcd_job_resume_total 1", line)
	}

	// Bit-identical twice over: against a fresh uninterrupted job on the
	// restarted server, and against the in-process library sweep.
	fresh := submitJob(t, h2, jobSubmitRequest{Kind: "survey", Deployment: id, ThetaPi: 0.25, Grid: 10})
	freshFinal := pollJob(t, h2, fresh.ID)
	if freshFinal.State != "done" {
		t.Fatalf("fresh job: state %q, want done", freshFinal.State)
	}
	if final.Result.Stats[0] != freshFinal.Result.Stats[0] {
		t.Fatalf("resumed result %+v != fresh result %+v", final.Result.Stats[0], freshFinal.Result.Stats[0])
	}
	want := libStats(t, net, []float64{0.25}, 10)
	if final.Result.Stats[0] != want[0] {
		t.Fatalf("resumed result %+v != library %+v", final.Result.Stats[0], want[0])
	}
}

// TestJobEventsStream exercises the SSE endpoint over real HTTP: a
// throttled job streams at least one band event and ends with a
// terminal "done" snapshot; re-subscribing to the finished job answers
// the terminal snapshot immediately and closes.
func TestJobEventsStream(t *testing.T) {
	srv := mustNewStopped(t, Config{JobThrottle: 15 * time.Millisecond})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	h := srv.Handler()
	waitReadyz(t, h, ReadyOK)
	id := registerNet(t, h, testNetwork(t, 60, 14))

	job := submitJob(t, h, jobSubmitRequest{Kind: "survey", Deployment: id, ThetaPi: 0.25, Grid: 6})
	bands, finalState := streamEvents(t, ts.URL+"/v1/jobs/"+job.ID+"/events")
	if bands == 0 {
		t.Fatal("stream carried no band events")
	}
	if finalState != "done" {
		t.Fatalf("stream final snapshot state = %q, want done", finalState)
	}

	// A subscription to the already-terminal job answers the snapshot
	// and closes immediately.
	if _, finalState := streamEvents(t, ts.URL+"/v1/jobs/"+job.ID+"/events"); finalState != "done" {
		t.Fatalf("terminal re-subscribe state = %q, want done", finalState)
	}

	if rec := do(t, h, "GET", "/v1/jobs/job-nope/events", nil); rec.Code != http.StatusNotFound {
		t.Fatalf("events for unknown job: status %d, want 404", rec.Code)
	}
}

// streamEvents consumes one SSE stream to EOF, returning the number of
// band events and the state of the last snapshot seen.
func streamEvents(t *testing.T, url string) (bands int, finalState string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("events: status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("events content type %q", ct)
	}
	var event string
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "event: "):
			event = strings.TrimPrefix(line, "event: ")
			if event == "band" {
				bands++
			}
		case strings.HasPrefix(line, "data: ") && event == "snapshot":
			var snap jobResponse
			if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &snap); err != nil {
				t.Fatalf("snapshot payload: %v", err)
			}
			finalState = snap.State
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return bands, finalState
}

// TestJobTransientBandRetries proves the server's executor composes
// with the manager's bounded retry: two injected transient band faults
// are absorbed and the job still matches the library bit-identically.
func TestJobTransientBandRetries(t *testing.T) {
	defer faultinject.Reset()
	srv := mustNewStopped(t, Config{})
	h := srv.Handler()
	waitReadyz(t, h, ReadyOK)
	net := testNetwork(t, 60, 15)
	id := registerNet(t, h, net)

	var fails atomic.Int64
	remove := faultinject.Set(faultinject.JobBand, func() error {
		if fails.Add(1) <= 2 {
			return fmt.Errorf("%w: injected band flake", experiment.ErrTransient)
		}
		return nil
	})
	defer remove()

	job := submitJob(t, h, jobSubmitRequest{Kind: "survey", Deployment: id, ThetaPi: 0.25, Grid: 6})
	final := pollJob(t, h, job.ID)
	if final.State != "done" {
		t.Fatalf("flaky-band job: state %q (error %q), want done", final.State, final.Error)
	}
	want := libStats(t, net, []float64{0.25}, 6)
	if final.Result.Stats[0] != want[0] {
		t.Fatalf("retried result %+v != library %+v", final.Result.Stats[0], want[0])
	}
}

// metricValue parses the sample value off a /metrics line returned by
// metricLine, failing if the line is absent.
func metricValue(t *testing.T, h http.Handler, prefix string) float64 {
	t.Helper()
	line := metricLine(t, h, prefix)
	if line == "" {
		t.Fatalf("no /metrics line starts with %q", prefix)
	}
	fields := strings.Fields(line)
	v, err := strconv.ParseFloat(fields[len(fields)-1], 64)
	if err != nil {
		t.Fatalf("metric line %q: %v", line, err)
	}
	return v
}

// TestSurveyPointTelemetry checks the production visibility of the
// survey kernel: inline /survey requests and job bands both feed
// fvcd_survey_points_total, and each observes the per-band ns/point
// histogram under its own source label.
func TestSurveyPointTelemetry(t *testing.T) {
	srv := mustNewStopped(t, Config{})
	h := srv.Handler()
	waitReadyz(t, h, "ok")
	net := testNetwork(t, 60, 11)
	id := registerNet(t, h, net)

	if got := metricValue(t, h, "fvcd_survey_points_total"); got != 0 {
		t.Fatalf("fvcd_survey_points_total starts at %v, want 0", got)
	}

	// Inline survey: one 32×32 sweep = 1024 points, one histogram
	// observation under source="survey".
	body, err := json.Marshal(surveyRequest{ThetaPi: 0.25, Grid: 32})
	if err != nil {
		t.Fatal(err)
	}
	rec := do(t, h, "POST", "/v1/deployments/"+id+"/survey", body)
	if rec.Code != http.StatusOK {
		t.Fatalf("survey: status %d: %s", rec.Code, rec.Body.String())
	}
	if got := metricValue(t, h, "fvcd_survey_points_total"); got != 1024 {
		t.Fatalf("after inline survey: fvcd_survey_points_total = %v, want 1024", got)
	}
	if got := metricValue(t, h, `fvcd_band_ns_per_point_count{source="survey"}`); got != 1 {
		t.Fatalf("survey histogram count = %v, want 1", got)
	}
	if got := metricValue(t, h, `fvcd_band_ns_per_point_count{source="job"}`); got != 0 {
		t.Fatalf("job histogram count = %v before any job, want 0", got)
	}

	// Survey job: one θ × Grid 24 = 24 bands of 24 points each. The
	// counter grows by the full 576 and the job-source histogram sees
	// one observation per band.
	job := submitJob(t, h, jobSubmitRequest{Kind: "survey", Deployment: id, ThetaPi: 0.25, Grid: 24})
	if final := pollJob(t, h, job.ID); final.State != "done" {
		t.Fatalf("job state %q (error %q), want done", final.State, final.Error)
	}
	if got := metricValue(t, h, "fvcd_survey_points_total"); got != 1024+576 {
		t.Fatalf("after job: fvcd_survey_points_total = %v, want %d", got, 1024+576)
	}
	if got := metricValue(t, h, `fvcd_band_ns_per_point_count{source="job"}`); got != 24 {
		t.Fatalf("job histogram count = %v, want 24 (one per band)", got)
	}
	if got := metricValue(t, h, `fvcd_band_ns_per_point_count{source="survey"}`); got != 1 {
		t.Fatalf("survey histogram count moved to %v after a job, want 1", got)
	}
}

// TestJobCompactTelemetry checks fvcd_job_compact_ns: one observation
// per durable job, made after the job already reads done (compaction
// runs after the terminal event), never per band, and none for a
// memory-only job.
func TestJobCompactTelemetry(t *testing.T) {
	const count = `fvcd_job_compact_ns_count{kind="survey"}`
	srv := mustNewStopped(t, Config{StateDir: t.TempDir()})
	h := srv.Handler()
	waitReadyz(t, h, ReadyOK)
	id := registerNet(t, h, testNetwork(t, 60, 16))
	for i := 0; i < 2; i++ {
		job := submitJob(t, h, jobSubmitRequest{Kind: "survey", Deployment: id, ThetaPi: 0.25, Grid: 8})
		if final := pollJob(t, h, job.ID); final.State != "done" {
			t.Fatalf("job state %q (error %q), want done", final.State, final.Error)
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for metricValue(t, h, count) < 2 && time.Now().Before(deadline) {
		time.Sleep(2 * time.Millisecond)
	}
	if got := metricValue(t, h, count); got != 2 {
		t.Fatalf("%s = %v after two 8-band jobs, want 2 (one per job)", count, got)
	}

	mem := mustNewStopped(t, Config{})
	hm := mem.Handler()
	waitReadyz(t, hm, ReadyOK)
	mid := registerNet(t, hm, testNetwork(t, 60, 16))
	job := submitJob(t, hm, jobSubmitRequest{Kind: "survey", Deployment: mid, ThetaPi: 0.25, Grid: 8})
	if final := pollJob(t, hm, job.ID); final.State != "done" {
		t.Fatalf("memory-only job state %q, want done", final.State)
	}
	if got := metricValue(t, hm, count); got != 0 {
		t.Fatalf("memory-only server: %s = %v, want 0", count, got)
	}
}
