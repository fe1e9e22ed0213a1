package main

import (
	"fmt"
	"math"
	"strconv"

	"fullview/internal/depcache"
	"fullview/internal/deploy"
	"fullview/internal/geom"
	"fullview/internal/rng"
	"fullview/internal/sensor"
)

// The two deployment shapes every workload registers. Both keep the
// per-group n·r² of the internal/kernelbench fixtures (het: 1000
// cameras at radii 0.002/0.02/0.2; homog: 1000 cameras at r = 0.15) at
// four times the camera count, so the kernel's per-point work matches
// the BENCH_kernel.json cases on those networks.
const (
	hetProfile   = "0.4:0.001:0.5,0.4:0.01:0.3333,0.2:0.1:0.25"
	homogProfile = "1:0.075:0.5"
	fixtureN     = 4000
)

// thetasPi is kernelbench.Thetas as fractions of π — the θ-list every
// /query asks and every survey cycle walks.
var thetasPi = []float64{0.15, 0.25, 1.0 / 3, 0.5}

// fixture is one deployment registered by recipe.
type fixture struct {
	name    string // "het" or "homog"
	profile string
	n       int
	seed    uint64
}

// fixtureSeed derives the recipe seed of the k-th fixture of a run from
// the workload seed (never 0: fvcd maps seed 0 to 1).
func fixtureSeed(seed uint64, k int) uint64 {
	return rng.Mix64(seed*0x9e3779b97f4a7c15+uint64(k)+1) | 1
}

// fixtures returns het and homog, in that order, `copies` times over,
// each with its own derived seed.
func fixtures(seed uint64, copies int) []fixture {
	var out []fixture
	for c := 0; c < copies; c++ {
		out = append(out,
			fixture{name: "het", profile: hetProfile, n: fixtureN, seed: fixtureSeed(seed, 2*c)},
			fixture{name: "homog", profile: homogProfile, n: fixtureN, seed: fixtureSeed(seed, 2*c+1)})
	}
	return out
}

// registerBody is the POST /v1/deployments body of the fixture.
func (f fixture) registerBody() []byte {
	return []byte(fmt.Sprintf(`{"profile":%q,"n":%d,"seed":%d}`, f.profile, f.n, f.seed))
}

// network materialises the fixture exactly as fvcd's recipe path does.
func (f fixture) network() (*sensor.Network, error) {
	profile, err := sensor.ParseProfile(f.profile)
	if err != nil {
		return nil, err
	}
	return deploy.Uniform(geom.UnitTorus, profile, f.n, rng.New(f.seed, 0))
}

// deployment is a registered fixture: its id as fvcd reported it, and
// the benchmark's own copy of the network for the oracles.
type deployment struct {
	fixture
	id  string
	net *sensor.Network
}

// newDeployment pairs a registration answer with the local network and
// checks that both name the same content fingerprint.
func newDeployment(f fixture, id string) (*deployment, error) {
	net, err := f.network()
	if err != nil {
		return nil, err
	}
	if fp := depcache.Fingerprint(net); fp != id {
		return nil, fmt.Errorf("fixture %s: fvcd id %s, local fingerprint %s", f.name, id, fp)
	}
	return &deployment{fixture: f, id: id, net: net}, nil
}

// stream is one client's deterministic request generator. Every byte a
// client sends comes from here, so a seed fixes the request stream.
type stream struct{ r *rng.PCG }

// Stream ids of the generators; each client of each workload draws
// from its own.
const (
	streamQuery = 1 << 8
	streamChurn = 2 << 8
	streamFinal = 3 << 8
)

func newStream(seed uint64, id uint64) *stream { return &stream{r: rng.New(seed, id)} }

// points draws n uniform points on the unit torus.
func (s *stream) points(n int) []geom.Vec {
	pts := make([]geom.Vec, n)
	for i := range pts {
		pts[i] = geom.V(s.r.Float64(), s.r.Float64())
	}
	return pts
}

// appendFloat writes v in the shortest form that round-trips, as
// encoding/json does.
func appendFloat(b []byte, v float64) []byte {
	return strconv.AppendFloat(b, v, 'g', -1, 64)
}

// queryBody encodes a /query request over the θ-list.
func queryBody(b []byte, pts []geom.Vec) []byte {
	b = append(b[:0], `{"thetasPi":[`...)
	for i, t := range thetasPi {
		if i > 0 {
			b = append(b, ',')
		}
		b = appendFloat(b, t)
	}
	b = append(b, `],"points":[`...)
	for i, p := range pts {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, `{"x":`...)
		b = appendFloat(b, p.X)
		b = append(b, `,"y":`...)
		b = appendFloat(b, p.Y)
		b = append(b, '}')
	}
	return append(b, "]}"...)
}

// patch is one churn PATCH: re-aims, removals and additions addressed
// to the live camera list.
type patch struct {
	reaimIdx    []int
	reaimOrient []float64
	remove      []int
	add         []sensor.Camera
}

// patchSpec is the churn PATCH shape: 8 re-aims, 1 removal, 1 addition.
const (
	patchReaims  = 8
	patchRemoves = 1
	patchAdds    = 1
)

// patch draws one PATCH for a deployment with `live` cameras whose
// additions follow profile's groups. Re-aim and removal indices are
// distinct.
func (s *stream) patch(live int, profile sensor.Profile) patch {
	var p patch
	seen := make(map[int]bool)
	pick := func() int {
		for {
			i := s.r.Intn(live)
			if !seen[i] {
				seen[i] = true
				return i
			}
		}
	}
	for k := 0; k < patchReaims; k++ {
		p.reaimIdx = append(p.reaimIdx, pick())
		p.reaimOrient = append(p.reaimOrient, s.r.Angle())
	}
	for k := 0; k < patchRemoves; k++ {
		p.remove = append(p.remove, pick())
	}
	groups := profile.Groups()
	for k := 0; k < patchAdds; k++ {
		g := s.r.Intn(len(groups))
		p.add = append(p.add, sensor.Camera{
			Pos:      geom.V(s.r.Float64(), s.r.Float64()),
			Orient:   s.r.Angle(),
			Radius:   groups[g].Radius,
			Aperture: groups[g].Aperture,
			Group:    g,
		})
	}
	return p
}

// body encodes the PATCH request.
func (p patch) body() []byte {
	b := []byte(`{"reaim":[`)
	for i, idx := range p.reaimIdx {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, `{"index":`...)
		b = strconv.AppendInt(b, int64(idx), 10)
		b = append(b, `,"orient":`...)
		b = appendFloat(b, p.reaimOrient[i])
		b = append(b, '}')
	}
	b = append(b, `],"remove":[`...)
	for i, idx := range p.remove {
		if i > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendInt(b, int64(idx), 10)
	}
	b = append(b, `],"add":[`...)
	for i, c := range p.add {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, `{"x":`...)
		b = appendFloat(b, c.Pos.X)
		b = append(b, `,"y":`...)
		b = appendFloat(b, c.Pos.Y)
		b = append(b, `,"orient":`...)
		b = appendFloat(b, c.Orient)
		b = append(b, `,"radius":`...)
		b = appendFloat(b, c.Radius)
		b = append(b, `,"aperture":`...)
		b = appendFloat(b, c.Aperture)
		b = append(b, `,"group":`...)
		b = strconv.AppendInt(b, int64(c.Group), 10)
		b = append(b, '}')
	}
	return append(b, "]}"...)
}

// versions is how far one PATCH moves a deployment's version: fvcd
// bumps it once per non-empty group.
func (p patch) versions() uint64 {
	var v uint64
	for _, n := range []int{len(p.reaimIdx), len(p.remove), len(p.add)} {
		if n > 0 {
			v++
		}
	}
	return v
}

// surveyBody is an inline /survey request on the default dense grid.
func surveyBody(thetaPi float64) []byte {
	return append(appendFloat([]byte(`{"thetaPi":`), thetaPi), '}')
}

// jobBody submits a survey job on the default dense grid.
func jobBody(id string, thetaPi float64) []byte {
	return []byte(fmt.Sprintf(`{"kind":"survey","deployment":%q,"thetaPi":%s}`,
		id, appendFloat(nil, thetaPi)))
}

// radians converts a fraction of π the way fvcd does.
func radians(thetaPi float64) float64 { return thetaPi * math.Pi }
