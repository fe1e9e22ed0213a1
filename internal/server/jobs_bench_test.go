package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"fullview/internal/core"
)

// streamedJob is the subset of a job body the benchmark reads.
type streamedJob struct {
	ID     string `json:"id"`
	State  string `json:"state"`
	Result *struct {
		Stats []core.RegionStats `json:"stats"`
	} `json:"result"`
}

// postJSON posts body to url and decodes the answer into out, failing
// unless the status is want.
func postJSON(b *testing.B, url, body string, want int, out any) {
	b.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		b.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		b.Fatal(err)
	}
	if resp.StatusCode != want {
		b.Fatalf("POST %s: status %d, want %d: %s", url, resp.StatusCode, want, data)
	}
	if err := json.Unmarshal(data, out); err != nil {
		b.Fatalf("POST %s: %v", url, err)
	}
}

// awaitJobStream reads a job's event stream until fvcd closes it at the
// terminal state and returns the last snapshot it carried.
func awaitJobStream(b *testing.B, url string) streamedJob {
	b.Helper()
	resp, err := http.Get(url)
	if err != nil {
		b.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		b.Fatalf("GET %s: status %d", url, resp.StatusCode)
	}
	var last streamedJob
	var event string
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "event: "):
			event = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: ") && event == "snapshot":
			last = streamedJob{}
			if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &last); err != nil {
				b.Fatalf("snapshot payload: %v", err)
			}
		}
	}
	if err := sc.Err(); err != nil {
		b.Fatal(err)
	}
	return last
}

// BenchmarkSurveyJobStreamed measures one durable survey job end to
// end, the way a client awaits it: submit over loopback HTTP to a
// server with a state dir, then read the job's SSE stream until the
// server closes it with the terminal snapshot. The deployment is a
// 4,000-camera heterogeneous network surveyed at θ = π/4 on its default
// dense grid (183×183, one band per row). It is black-box — it drives
// only New, the registration, survey and job routes and /readyz — and
// checks every job's result against the inline /survey of the same
// deployment, to the exact integer. Reported: ns/job.
func BenchmarkSurveyJobStreamed(b *testing.B) {
	srv, err := New(Config{StateDir: b.TempDir()})
	if err != nil {
		b.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	b.Cleanup(func() {
		ts.Close()
		srv.Shutdown(context.Background())
	})
	deadline := time.Now().Add(time.Minute)
	for {
		_, body := serveGet(srv.Handler(), "/readyz")
		if bytes.Contains(body, []byte(`"status":"ok"`)) {
			break
		}
		if time.Now().After(deadline) {
			b.Fatalf("readyz %s, want ok", body)
		}
		time.Sleep(time.Millisecond)
	}

	var reg registerResponse
	postJSON(b, ts.URL+"/v1/deployments",
		`{"profile":"0.4:0.001:0.5,0.4:0.01:0.3333,0.2:0.1:0.25","n":4000,"seed":1}`, http.StatusCreated, &reg)
	var inline surveyResponse
	postJSON(b, ts.URL+"/v1/deployments/"+reg.ID+"/survey", `{"thetaPi":0.25}`, http.StatusOK, &inline)
	submit := fmt.Sprintf(`{"kind":"survey","deployment":%q,"thetaPi":0.25}`, reg.ID)

	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var job streamedJob
		postJSON(b, ts.URL+"/v1/jobs", submit, http.StatusAccepted, &job)
		final := awaitJobStream(b, ts.URL+"/v1/jobs/"+job.ID+"/events")
		b.StopTimer()
		if final.State != "done" || final.Result == nil || len(final.Result.Stats) != 1 {
			b.Fatalf("job %s ended %q with result %+v, want done", job.ID, final.State, final.Result)
		}
		got := final.Result.Stats[0]
		if got.Points != inline.Points || got.FullView != inline.FullView || got.Necessary != inline.Necessary ||
			got.Sufficient != inline.Sufficient || got.MinCovering != inline.MinCovering || got.MeanCovering != inline.MeanCovering {
			b.Fatalf("job result %+v differs from the inline survey %+v", got, inline)
		}
		b.StartTimer()
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N), "ns/job")
}
