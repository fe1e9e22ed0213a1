// Queryservice: drive the fvcd coverage query daemon from a Go client.
//
// The example deploys a heterogeneous camera network, registers it with
// fvcd over HTTP, asks the service for batch point full-view verdicts
// across a θ-list, and cross-checks every answer bit-for-bit against
// fullview.MultiChecker run in-process — then registers the same
// network a second time to show the deployment cache hitting, PATCHes
// the live deployment (reaim/remove/add) to show the mutation overlay,
// and cross-checks the post-patch verdicts against a fresh library
// checker built from the mutated camera list. Finally it runs the same
// survey as an asynchronous job — submit, stream the per-band SSE
// progress, poll with Retry-After-aware backoff — and cross-checks the
// job's merged result against the library's synchronous sweep.
//
// Run self-contained (starts an in-process service on a random port):
//
//	go run ./examples/queryservice
//
// Or against a running daemon (this is also the CI smoke test's mode):
//
//	go run ./cmd/fvcd -addr :8080 &
//	go run ./examples/queryservice -addr http://localhost:8080
//
// Or against an fvcd cluster with client-side ring routing — the
// zero-hop alternative to the fvcd -route process. With -peers the
// client computes the deployment's content fingerprint locally
// (fullview.NetworkFingerprint), asks the consistent-hash ring which
// replica owns it, and talks straight to that shard:
//
//	go run ./examples/queryservice -peers peers.json
//
// The process exits non-zero if any service answer differs from the
// in-process library result, or if any retryable 429/503 rejection
// arrives without the Retry-After header the service contract
// promises.
package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"os"
	"strings"
	"time"

	"fullview"
	"fullview/internal/backoff"
)

// The JSON wire types a client speaks to fvcd.
type (
	cameraJSON struct {
		X        float64 `json:"x"`
		Y        float64 `json:"y"`
		Orient   float64 `json:"orient"`
		Radius   float64 `json:"radius"`
		Aperture float64 `json:"aperture"`
		Group    int     `json:"group,omitempty"`
	}
	registerRequest struct {
		Cameras []cameraJSON `json:"cameras"`
	}
	registerResponse struct {
		ID      string `json:"id"`
		Cameras int    `json:"cameras"`
		Cached  bool   `json:"cached"`
		Version uint64 `json:"version"`
	}
	reaimJSON struct {
		Index  int     `json:"index"`
		Orient float64 `json:"orient"`
	}
	patchRequest struct {
		Reaim  []reaimJSON  `json:"reaim,omitempty"`
		Remove []int        `json:"remove,omitempty"`
		Add    []cameraJSON `json:"add,omitempty"`
	}
	patchResponse struct {
		ID      string `json:"id"`
		Version uint64 `json:"version"`
		Cameras int    `json:"cameras"`
		Overlay int    `json:"overlay"`
	}
	pointJSON struct {
		X float64 `json:"x"`
		Y float64 `json:"y"`
	}
	queryRequest struct {
		ThetasPi []float64   `json:"thetasPi"`
		Points   []pointJSON `json:"points"`
	}
	thetaVerdict struct {
		ThetaPi    float64 `json:"thetaPi"`
		FullView   bool    `json:"fullView"`
		Necessary  bool    `json:"necessary"`
		Sufficient bool    `json:"sufficient"`
	}
	pointResult struct {
		Point       pointJSON      `json:"point"`
		NumCovering int            `json:"numCovering"`
		MaxGap      float64        `json:"maxGap"`
		PerTheta    []thetaVerdict `json:"perTheta"`
	}
	queryResponse struct {
		ID      string        `json:"id"`
		Version uint64        `json:"version"`
		Results []pointResult `json:"results"`
	}
	surveyRequest struct {
		ThetaPi float64 `json:"thetaPi"`
		Grid    int     `json:"grid,omitempty"`
	}
	surveyResponse struct {
		Points    int   `json:"points"`
		FullView  int   `json:"fullView"`
		ElapsedNS int64 `json:"elapsedNs"`
	}
	jobSubmitRequest struct {
		Kind       string  `json:"kind"`
		Deployment string  `json:"deployment"`
		ThetaPi    float64 `json:"thetaPi,omitempty"`
		Grid       int     `json:"grid,omitempty"`
	}
	jobResult struct {
		Stats []fullview.RegionStats `json:"stats"`
	}
	jobResponse struct {
		ID        string     `json:"id"`
		State     string     `json:"state"`
		Bands     int        `json:"bands"`
		BandsDone int        `json:"bandsDone"`
		Durable   bool       `json:"durable"`
		Error     string     `json:"error"`
		Result    *jobResult `json:"result"`
	}
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "queryservice:", err)
		os.Exit(1)
	}
}

func run() error {
	addr := flag.String("addr", "", "base URL of a running fvcd (empty = start one in-process)")
	peersFile := flag.String("peers", "", "cluster peers file: route requests client-side by the consistent-hash ring (overrides -addr)")
	n := flag.Int("n", 400, "cameras to deploy")
	seed := flag.Uint64("seed", 2012, "deployment RNG seed")
	flag.Parse()

	base := *addr
	if base == "" && *peersFile == "" {
		// No daemon given: host the service in-process on a random port,
		// exactly as cmd/fvcd would. A small job throttle paces the async
		// job below so its SSE stream visibly carries per-band events.
		srv, err := fullview.NewService(fullview.ServiceConfig{JobThrottle: 2 * time.Millisecond})
		if err != nil {
			return err
		}
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return err
		}
		go srv.Serve(ln)
		defer func() {
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			defer cancel()
			srv.Shutdown(ctx)
		}()
		base = "http://" + ln.Addr().String()
		fmt.Printf("started in-process fvcd at %s\n", base)
	}
	base = strings.TrimRight(base, "/")

	// A heterogeneous fleet: a few long-range narrow cameras plus many
	// short-range wide ones (the paper's Section VI setting).
	profile, err := fullview.ParseProfile("0.3:0.22:0.4,0.7:0.12:0.5")
	if err != nil {
		return err
	}
	network, err := fullview.DeployUniform(fullview.UnitTorus, profile, *n, fullview.NewRNG(*seed, 0))
	if err != nil {
		return err
	}

	// Client-side ring routing: fingerprint the network locally — the
	// same sha256 content fingerprint the service will assign as the
	// deployment id — and ask the consistent-hash ring which cluster
	// member owns it. Every request below then goes straight to the
	// owning shard, no router hop. Replicas serve mis-routed requests
	// correctly anyway (ownership is advisory), so a stale peers file
	// degrades placement, not correctness.
	localID := fullview.NetworkFingerprint(network)
	if *peersFile != "" {
		peers, err := fullview.LoadClusterPeers(*peersFile)
		if err != nil {
			return err
		}
		ring, err := peers.Ring()
		if err != nil {
			return err
		}
		owner := ring.Owner(localID)
		base, _ = peers.URL(owner)
		fmt.Printf("ring routing: deployment %s is owned by member %q at %s\n", localID, owner, base)
	}
	base = strings.TrimRight(base, "/")

	// Register the deployment: the id that comes back is the network's
	// content fingerprint.
	cams := make([]cameraJSON, network.Len())
	for i := 0; i < network.Len(); i++ {
		c := network.Camera(i)
		cams[i] = cameraJSON{X: c.Pos.X, Y: c.Pos.Y, Orient: c.Orient,
			Radius: c.Radius, Aperture: c.Aperture, Group: c.Group}
	}
	var reg registerResponse
	if err := postJSON(base+"/v1/deployments", registerRequest{Cameras: cams}, &reg); err != nil {
		return fmt.Errorf("register: %w", err)
	}
	if reg.ID != localID {
		return fmt.Errorf("service assigned id %s, local fingerprint is %s — ring routing would misplace this deployment", reg.ID, localID)
	}
	fmt.Printf("registered deployment %s (%d cameras, cached=%v)\n", reg.ID, reg.Cameras, reg.Cached)

	// Batch query: five probe points across three effective angles.
	thetasPi := []float64{0.2, 0.25, 0.5}
	points := []pointJSON{{0.5, 0.5}, {0.1, 0.9}, {0.25, 0.75}, {0.8, 0.3}, {0.42, 0.58}}
	var q queryResponse
	if err := postJSON(base+"/v1/deployments/"+reg.ID+"/query",
		queryRequest{ThetasPi: thetasPi, Points: points}, &q); err != nil {
		return fmt.Errorf("query: %w", err)
	}

	// Cross-check every verdict bit-for-bit against the library.
	thetas := make([]float64, len(thetasPi))
	for i, tp := range thetasPi {
		thetas[i] = tp * math.Pi
	}
	mc, err := fullview.NewMultiChecker(network, thetas)
	if err != nil {
		return err
	}
	for i, p := range points {
		want := mc.Evaluate(fullview.V(p.X, p.Y))
		got := q.Results[i]
		if got.NumCovering != want.NumCovering || got.MaxGap != want.MaxGap {
			return fmt.Errorf("point %d: service says covering=%d gap=%v, library says %d / %v",
				i, got.NumCovering, got.MaxGap, want.NumCovering, want.MaxGap)
		}
		for j, v := range want.PerTheta {
			g := got.PerTheta[j]
			if g.FullView != v.FullView || g.Necessary != v.Necessary || g.Sufficient != v.Sufficient {
				return fmt.Errorf("point %d θ=%.2fπ: service %+v disagrees with library %+v",
					i, thetasPi[j], g, v)
			}
		}
		fmt.Printf("point (%.2f, %.2f): %d cameras, gap %.3f rad, full-view@0.25π=%v — matches library\n",
			p.X, p.Y, got.NumCovering, got.MaxGap, got.PerTheta[1].FullView)
	}

	// Register the identical network again: same id, served from cache.
	var reg2 registerResponse
	if err := postJSON(base+"/v1/deployments", registerRequest{Cameras: cams}, &reg2); err != nil {
		return fmt.Errorf("re-register: %w", err)
	}
	if reg2.ID != reg.ID || !reg2.Cached {
		return fmt.Errorf("re-registration got id=%s cached=%v, want the cached %s", reg2.ID, reg2.Cached, reg.ID)
	}
	fmt.Println("re-registration was a cache hit: spatial index reused, not rebuilt")

	// Churn: mutate the live deployment in place — re-point one camera,
	// retire two, add one — and check the version bump. The patch is
	// absorbed by a delta overlay on the cached spatial index; the CSR
	// base is not rebuilt on the request path.
	extra := cameraJSON{X: 0.37, Y: 0.73, Orient: -0.9, Radius: 0.2, Aperture: 1.4}
	var patch patchResponse
	if err := doJSON(http.MethodPatch, base+"/v1/deployments/"+reg.ID,
		patchRequest{
			Reaim:  []reaimJSON{{Index: 0, Orient: 1.5}},
			Remove: []int{7, 3},
			Add:    []cameraJSON{extra},
		}, &patch); err != nil {
		return fmt.Errorf("patch: %w", err)
	}
	if patch.Version != reg.Version+3 || patch.Cameras != network.Len()-1 {
		return fmt.Errorf("patch answered version=%d cameras=%d, want version %d and %d cameras",
			patch.Version, patch.Cameras, reg.Version+3, network.Len()-1)
	}
	fmt.Printf("patched deployment: version %d→%d, %d cameras, overlay %d\n",
		reg.Version, patch.Version, patch.Cameras, patch.Overlay)

	// Overlay-vs-fresh agreement: apply the same mutation to a plain
	// camera slice, build a fresh library checker over it, and demand
	// the service's post-patch verdicts match it bit-for-bit.
	mutated := append([]fullview.Camera(nil), network.Cameras()...)
	mutated[0].Orient = 1.5
	mutated = append(mutated[:7], mutated[8:]...) // remove 7 then 3, descending
	mutated = append(mutated[:3], mutated[4:]...)
	mutated = append(mutated, fullview.Camera{Pos: fullview.V(extra.X, extra.Y),
		Orient: extra.Orient, Radius: extra.Radius, Aperture: extra.Aperture})
	mutNet, err := fullview.NewNetwork(fullview.UnitTorus, mutated)
	if err != nil {
		return err
	}
	mutMC, err := fullview.NewMultiChecker(mutNet, thetas)
	if err != nil {
		return err
	}
	var q2 queryResponse
	if err := postJSON(base+"/v1/deployments/"+reg.ID+"/query",
		queryRequest{ThetasPi: thetasPi, Points: points}, &q2); err != nil {
		return fmt.Errorf("post-patch query: %w", err)
	}
	if q2.Version != patch.Version {
		return fmt.Errorf("post-patch query ran against version %d, want %d", q2.Version, patch.Version)
	}
	for i, p := range points {
		want := mutMC.Evaluate(fullview.V(p.X, p.Y))
		got := q2.Results[i]
		if got.NumCovering != want.NumCovering || got.MaxGap != want.MaxGap {
			return fmt.Errorf("post-patch point %d: service says covering=%d gap=%v, fresh library says %d / %v",
				i, got.NumCovering, got.MaxGap, want.NumCovering, want.MaxGap)
		}
		for j, v := range want.PerTheta {
			g := got.PerTheta[j]
			if g.FullView != v.FullView || g.Necessary != v.Necessary || g.Sufficient != v.Sufficient {
				return fmt.Errorf("post-patch point %d θ=%.2fπ: service %+v disagrees with fresh library %+v",
					i, thetasPi[j], g, v)
			}
		}
	}
	fmt.Println("post-patch verdicts match a fresh checker over the mutated camera list")

	// Inline survey: one request-path sweep over a dense grid. The
	// response carries the server's kernel wall time, so the print
	// shows what the batch execution path costs per point in situ.
	const surveyGrid = 60
	var sv surveyResponse
	if err := postJSON(base+"/v1/deployments/"+reg.ID+"/survey",
		surveyRequest{ThetaPi: 0.25, Grid: surveyGrid}, &sv); err != nil {
		return fmt.Errorf("inline survey: %w", err)
	}
	surveyPoints, err := fullview.GridPoints(fullview.UnitTorus, surveyGrid)
	if err != nil {
		return err
	}
	surveyChecker, err := fullview.NewChecker(mutNet, 0.25*math.Pi)
	if err != nil {
		return err
	}
	if want := surveyChecker.SurveyRegion(surveyPoints); sv.Points != want.Points || sv.FullView != want.FullView {
		return fmt.Errorf("inline survey says %d/%d full-view, library sweep says %d/%d",
			sv.FullView, sv.Points, want.FullView, want.Points)
	}
	fmt.Printf("inline survey leg: %d points in %.2fms (%.0f ns/point), %d full-view covered\n",
		sv.Points, float64(sv.ElapsedNS)/1e6, float64(sv.ElapsedNS)/float64(sv.Points), sv.FullView)

	// Async jobs: the same survey work, off the request path. Submit a
	// survey job against the (patched) deployment, stream its band-by-
	// band progress over SSE, poll it to the terminal state with the
	// same Retry-After-aware backoff, and check the merged result
	// bit-for-bit against the library's synchronous sweep.
	const jobGrid = 60
	jobStart := time.Now()
	var job jobResponse
	if err := postJSON(base+"/v1/jobs", jobSubmitRequest{
		Kind: "survey", Deployment: reg.ID, ThetaPi: 0.25, Grid: jobGrid,
	}, &job); err != nil {
		return fmt.Errorf("submit job: %w", err)
	}
	fmt.Printf("submitted survey job %s (%d bands, durable=%v)\n", job.ID, job.Bands, job.Durable)

	bandEvents, streamState, err := streamJob(base + "/v1/jobs/" + job.ID + "/events")
	if err != nil {
		return fmt.Errorf("stream job events: %w", err)
	}
	fmt.Printf("SSE stream: %d band events, closing state %q\n", bandEvents, streamState)

	deadline := time.Now().Add(2 * time.Minute)
	for job.State != "done" && job.State != "failed" && job.State != "cancelled" {
		if time.Now().After(deadline) {
			return fmt.Errorf("job %s stuck in %q (%d/%d bands)", job.ID, job.State, job.BandsDone, job.Bands)
		}
		if err := getJSON(base+"/v1/jobs/"+job.ID, &job); err != nil {
			return fmt.Errorf("poll job: %w", err)
		}
	}
	if job.State != "done" || job.Result == nil || len(job.Result.Stats) != 1 {
		return fmt.Errorf("job %s ended %q: %s", job.ID, job.State, job.Error)
	}
	jobPoints, err := fullview.GridPoints(fullview.UnitTorus, jobGrid)
	if err != nil {
		return err
	}
	jobChecker, err := fullview.NewChecker(mutNet, 0.25*math.Pi)
	if err != nil {
		return err
	}
	if want := jobChecker.SurveyRegion(jobPoints); job.Result.Stats[0] != want {
		return fmt.Errorf("job result %+v differs from the library sweep %+v", job.Result.Stats[0], want)
	}
	fmt.Printf("job result matches the library sweep bit-for-bit: %d/%d grid points full-view covered\n",
		job.Result.Stats[0].FullView, job.Result.Stats[0].Points)
	jobElapsed := time.Since(jobStart)
	fmt.Printf("survey job leg: %d points across %d bands in %.2fms wall (submit→done, incl. polling)\n",
		job.Result.Stats[0].Points, job.Bands, float64(jobElapsed.Nanoseconds())/1e6)

	// Show the cache and churn working in the service's own metrics.
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	for _, line := range strings.Split(string(body), "\n") {
		interesting := strings.HasPrefix(line, "fvcd_depcache_") ||
			strings.HasPrefix(line, "fvcd_mutations_total") ||
			strings.HasPrefix(line, "fvcd_overlay_cameras") ||
			strings.HasPrefix(line, "fvcd_rebuilds_total") ||
			strings.HasPrefix(line, "fvcd_jobs_total") ||
			strings.HasPrefix(line, "fvcd_job_bands_total")
		if interesting && !strings.HasPrefix(line, "#") {
			fmt.Println("metrics:", line)
		}
	}
	return nil
}

// retryPolicy is the client-side resilience discipline for talking to
// fvcd: capped exponential backoff with jitter, honoring the server's
// Retry-After header (fvcd sends a jittered fractional-seconds value on
// 429), retrying only failures that are safe to retry. Every fvcd POST
// is idempotent by construction — registration is content-addressed and
// query/survey are reads — so requests here are marked idempotent; a
// non-idempotent request would only retry failures that provably
// happened before any response byte arrived (connection refused),
// never a failure mid-body, where the server may already have acted.
type retryPolicy struct {
	maxAttempts int           // total tries, including the first
	base        time.Duration // first backoff
	cap         time.Duration // backoff ceiling
}

var defaultRetry = retryPolicy{maxAttempts: 5, base: 100 * time.Millisecond, cap: 2 * time.Second}

// retryableStatus reports whether a response status is worth retrying:
// overload shedding and transient gateway states, never client errors.
func retryableStatus(code int) bool {
	switch code {
	case http.StatusTooManyRequests, http.StatusBadGateway,
		http.StatusServiceUnavailable, http.StatusGatewayTimeout:
		return true
	}
	return false
}

// backoff returns the wait before try attempt (0-based), preferring the
// server's Retry-After when one was given: capped exponential growth
// with ±50% jitter, so a fleet of clients that failed together does not
// retry together.
func (p retryPolicy) backoff(attempt int, retryAfter string) time.Duration {
	if d, ok := backoff.ParseRetryAfter(retryAfter); ok {
		return d
	}
	return backoff.Jitter(backoff.Capped(p.base, p.cap, attempt), 0.5)
}

// postJSON posts v as JSON under the retry policy and decodes the
// response into out, treating any non-2xx status as an error.
func postJSON(url string, v, out any) error {
	return doJSON(http.MethodPost, url, v, out)
}

// getJSON reads url under the retry policy (no request body).
func getJSON(url string, out any) error {
	return doJSON(http.MethodGet, url, nil, out)
}

// streamJob consumes one job's SSE event stream to EOF, returning the
// number of per-band progress events and the state carried by the last
// snapshot (the stream closes with a terminal snapshot).
func streamJob(url string) (bands int, lastState string, err error) {
	resp, err := http.Get(url)
	if err != nil {
		return 0, "", err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return 0, "", fmt.Errorf("events: %s", resp.Status)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "event: band"):
			bands++
		case strings.HasPrefix(line, "data: "):
			var payload struct {
				State string `json:"state"`
			}
			if json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &payload) == nil &&
				payload.State != "" {
				lastState = payload.State
			}
		}
	}
	return bands, lastState, sc.Err()
}

// doJSON sends v as a JSON request body with the given method under the
// retry policy. PATCH shares POST's retry safety here: fvcd persists a
// patch to the journal before applying it and a retried 5xx either
// finds the patch never happened or is rejected by validation against
// the already-mutated live list — but a retried 429/503 never applies
// the same patch twice blindly, because those statuses are sent before
// any journal write.
func doJSON(method, url string, v, out any) error {
	var body []byte
	if v != nil {
		var err error
		if body, err = json.Marshal(v); err != nil {
			return err
		}
	}
	var lastErr error
	for attempt := 0; attempt < defaultRetry.maxAttempts; attempt++ {
		var rd io.Reader
		if body != nil {
			rd = bytes.NewReader(body)
		}
		req, err := http.NewRequest(method, url, rd)
		if err != nil {
			return err
		}
		if body != nil {
			req.Header.Set("Content-Type", "application/json")
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			// Transport failure before any response: always safe to retry
			// (the idempotency caveat in the policy doc concerns failures
			// after bytes arrived, which appear below as read errors).
			lastErr = err
			time.Sleep(defaultRetry.backoff(attempt, ""))
			continue
		}
		data, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			// Failure mid-body. fvcd requests are idempotent, so retrying
			// is safe; for a non-idempotent API this branch must return.
			lastErr = fmt.Errorf("reading response: %w", err)
			time.Sleep(defaultRetry.backoff(attempt, ""))
			continue
		}
		if retryableStatus(resp.StatusCode) {
			retryAfter := resp.Header.Get("Retry-After")
			// The service contract promises a jittered fractional-seconds
			// Retry-After on every retryable shedding answer (429 and
			// transient 503, from replicas and routers alike). Enforce it:
			// a missing header is a server bug, not something to paper
			// over with local backoff.
			if (resp.StatusCode == http.StatusTooManyRequests ||
				resp.StatusCode == http.StatusServiceUnavailable) && retryAfter == "" {
				return fmt.Errorf("%s from %s without Retry-After — the fvcd contract requires it on retryable 429/503", resp.Status, url)
			}
			lastErr = fmt.Errorf("%s: %s", resp.Status, strings.TrimSpace(string(data)))
			time.Sleep(defaultRetry.backoff(attempt, retryAfter))
			continue
		}
		if resp.StatusCode/100 != 2 {
			return fmt.Errorf("%s: %s", resp.Status, strings.TrimSpace(string(data)))
		}
		return json.Unmarshal(data, out)
	}
	return fmt.Errorf("giving up after %d attempts: %w", defaultRetry.maxAttempts, lastErr)
}
