package main

import (
	"fmt"
	"math"
	"math/rand"
	"time"
)

// request is one POST /run body. Every field the server would otherwise
// default is set explicitly, so the output checks know the layer count.
type request struct {
	Model   string `json:"model"`
	Dataset string `json:"dataset"`
	Layers  int    `json:"layers"`
	Rows    int    `json:"rows"`
	Seed    int64  `json:"seed"`
}

// identity is what makes two runs compute byte-identical features and F1s.
type identity struct {
	model string
	seed  int64
	rows  int
}

func (r request) identity() identity { return identity{r.Model, r.Seed, r.Rows} }

// event is one scheduled request. due is the offset from the start of the
// measured phase at which an open loop sends it; closed loops ignore it.
type event struct {
	due time.Duration
	req request
}

// models are the executable tiny CNNs every workload cycles through, with
// the feature-layer count |L| the server uses by default for each.
var models = []struct {
	name   string
	layers int
}{
	{"tiny-alexnet", 4},
	{"tiny-vgg16", 3},
	{"tiny-resnet50", 3},
}

func newRequest(model int, rows int, seed int64) request {
	m := models[model%len(models)]
	return request{Model: m.name, Dataset: "foods", Layers: m.layers, Rows: rows, Seed: seed}
}

// workload is one traffic mix: the server flags it runs under, how requests
// arrive, and the seeded stream of requests.
type workload struct {
	name string
	why  string
	// rows is the dataset size of every request.
	rows int
	// openLoop sends at the events' due times; otherwise clients closed-loop.
	openLoop bool
	// share runs the server with -share; memBudgetMiB is its -mem-budget.
	share        bool
	memBudgetMiB int64
	// setups is how many times set-up is timed; setup_s is the median.
	setups int
	// traceRequests is how many requests from the head of the stream the
	// traced run replays.
	traceRequests int
	// stream returns the seeded request stream for a run of the given
	// length and the requests set-up serves first.
	stream func(seed int64, seconds int) (events []event, prime []request)
}

// clients is the number of HTTP connections (and closed-loop clients) every
// workload uses: one per CPU of the 2-core host the benchmark is sized for.
const clients = 2

// defaultMemBudgetMiB is vista-server's default -mem-budget (256 GiB).
const defaultMemBudgetMiB = 256 << 10

const (
	coldRows  = 40
	warmRows  = 250
	burstRows = 16
	// burstBudgetMiB admits one full-price run at a time: a tiny run prices
	// at about 53.2 GiB and a follower at about 53.17 GiB.
	burstBudgetMiB = 80 << 10
	// burstPeriod is the mean gap between open-loop arrival events; a
	// shared-burst stream holds seconds/burstPeriod events, rounded up.
	burstPeriod = 550 * time.Millisecond
	// Every soloEvery-th burst event is two distinct solos; the others are
	// identical pairs.
	soloEvery = 4
)

// maxClosedLoopRequests bounds a closed-loop stream; runs never come close.
func maxClosedLoopRequests(seconds int) int { return 40*seconds + 100 }

var workloads = []workload{
	{
		name:          "cold-distinct",
		rows:          coldRows,
		why:           "fresh weights seed per request: CNN inference dominates, the feature store only writes, share and admission queueing idle",
		memBudgetMiB:  defaultMemBudgetMiB,
		setups:        5,
		traceRequests: 24,
		stream: func(seed int64, seconds int) ([]event, []request) {
			rng := rand.New(rand.NewSource(seed))
			base := 1_000_000 + rng.Int63n(1_000_000_000)
			first := rng.Intn(len(models))
			n := maxClosedLoopRequests(seconds)
			evs := make([]event, n)
			for i := range evs {
				evs[i].req = newRequest(first+i, coldRows, base+int64(i))
			}
			return evs, warmUp(coldRows, base)
		},
	},
	{
		name:         "warm-repeat",
		rows:         warmRows,
		why:          "few (model, seed) identities materialized in set-up: every stage is a feature-store read, data synthesis and training dominate, no inference",
		memBudgetMiB: defaultMemBudgetMiB,
		// Each set-up runs cold inference on 250 rows of every model.
		setups:        3,
		traceRequests: 24,
		stream: func(seed int64, seconds int) ([]event, []request) {
			rng := rand.New(rand.NewSource(seed))
			prime := make([]request, len(models))
			for i := range prime {
				prime[i] = newRequest(i, warmRows, 1+rng.Int63n(1_000_000))
			}
			first := rng.Intn(len(prime))
			n := maxClosedLoopRequests(seconds)
			evs := make([]event, n)
			for i := range evs {
				evs[i].req = prime[(first+i)%len(prime)]
			}
			return evs, prime
		},
	},
	{
		name:          "shared-burst",
		rows:          burstRows,
		why:           "open-loop identical pairs inside the share window plus simultaneous distinct solos, one full-price run admitted at a time: share grouping and admission queueing work",
		openLoop:      true,
		share:         true,
		memBudgetMiB:  burstBudgetMiB,
		setups:        5,
		traceRequests: 24,
		stream: func(seed int64, seconds int) ([]event, []request) {
			rng := rand.New(rand.NewSource(seed))
			base := 1_000_000 + rng.Int63n(1_000_000_000)
			first := rng.Intn(len(models))
			soloPhase := rng.Intn(soloEvery)
			n := int(math.Ceil(float64(time.Duration(seconds)*time.Second) / float64(burstPeriod)))
			evs := make([]event, 0, 2*n)
			for k := 0; k < n; k++ {
				// Each event is two requests due at once: an identical pair
				// the share window groups, or two distinct solos that
				// admission must serialize.
				a := newRequest(first+k, burstRows, base+2*int64(k))
				b := a
				if (k+soloPhase)%soloEvery == 0 {
					b.Seed++
				}
				// A ±20% jitter keeps arrivals from phase-locking with run
				// lengths while the mean rate stays fixed.
				due := time.Duration((float64(k) + 0.4*rng.Float64() - 0.2) * float64(burstPeriod))
				due = max(due, 0)
				evs = append(evs, event{due: due, req: a}, event{due: due, req: b})
			}
			return evs, warmUp(burstRows, base)
		},
	},
}

// warmUp returns one request per model with weights seeds below base, which
// no request of the stream uses: set-up serves them once so the measured
// phase starts on a server that has run every model.
func warmUp(rows int, base int64) []request {
	out := make([]request, len(models))
	for i := range out {
		out[i] = newRequest(i, rows, base-1-int64(i))
	}
	return out
}

// serverFlags are the flags the workload adds to every spawned server.
func (w workload) serverFlags() []string {
	var flags []string
	if w.share {
		flags = append(flags, "-share")
	}
	if w.memBudgetMiB != defaultMemBudgetMiB {
		flags = append(flags, "-mem-budget", fmt.Sprint(w.memBudgetMiB))
	}
	return flags
}

func workloadByName(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}
