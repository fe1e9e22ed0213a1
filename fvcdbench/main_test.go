package main

import (
	"bytes"
	"fmt"
	"io"
	"testing"

	"fullview/internal/depcache"
)

// streamBytes renders the first cycles of every client's request
// stream of a workload, as sent on the wire.
func streamBytes(t *testing.T, workload string, seed uint64, cycles int) []byte {
	t.Helper()
	copies := 1
	if workload == "churn-cluster" {
		copies = 2
	}
	var deps []*deployment
	for _, f := range fixtures(seed, copies) {
		net, err := f.network()
		if err != nil {
			t.Fatal(err)
		}
		d, err := newDeployment(f, depcache.Fingerprint(net))
		if err != nil {
			t.Fatal(err)
		}
		deps = append(deps, d)
	}
	var next func(client int) []request
	clients := 2
	switch workload {
	case "survey-grid":
		g := surveyGen{ids: idsOf(deps)}
		next, clients = func(int) []request { return g.cycle() }, 1
	case "query-scatter":
		next = newQueryGen(seed, idsOf(deps), clients).cycle
	case "churn-cluster":
		g, err := newChurnGen(seed, deps)
		if err != nil {
			t.Fatal(err)
		}
		next = g.cycle
	}
	var buf bytes.Buffer
	for c := 0; c < clients; c++ {
		for i := 0; i < cycles; i++ {
			for _, q := range next(c) {
				fmt.Fprintf(&buf, "%d %s %s\n%s\n", c, q.method, q.path, q.body)
			}
		}
	}
	return buf.Bytes()
}

func TestRequestStreamIsSeeded(t *testing.T) {
	for _, w := range workloadNames() {
		a := streamBytes(t, w, 7, 20)
		if b := streamBytes(t, w, 7, 20); !bytes.Equal(a, b) {
			t.Errorf("%s: seed 7 gave two different request streams", w)
		}
		if c := streamBytes(t, w, 8, 20); bytes.Equal(a, c) {
			t.Errorf("%s: seeds 7 and 8 gave the same request stream", w)
		}
	}
}

// TestShortRunsPassOracle runs every workload briefly, untraced and
// traced, and requires every oracle check to pass and every metric of
// the final line to be present.
func TestShortRunsPassOracle(t *testing.T) {
	if testing.Short() {
		t.Skip("boots fvcd topologies")
	}
	for _, w := range workloadNames() {
		for _, trace := range []bool{false, true} {
			res, err := bench(options{workload: w, seed: 3, seconds: 0.5, trace: trace, base: t.TempDir()}, io.Discard)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w, trace, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s trace=%v: correct=%v failed=%d attempted=%d", w, trace, res.Correct, res.Failed, res.Attempted)
			}
			want := endToEndMetrics
			if trace {
				want = layerMetrics
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics, want %d", w, trace, len(res.Metrics), len(want))
			}
			for _, lm := range want {
				m, ok := res.Metrics[lm.name]
				if !ok {
					t.Errorf("%s trace=%v: metric %s missing", w, trace, lm.name)
				} else if !trace && !(m.Value > 0) {
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", w, lm.name, m.Value)
				}
			}
		}
	}
}
