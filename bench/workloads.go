package bench

import (
	"fmt"
	"math/rand/v2"
	"os"
	"path/filepath"
	"slices"
)

// workload is one traffic mix against one server configuration.
type workload struct {
	name string
	// maxWorkloads (as -max-workloads) and stateDir (a fresh -state-dir)
	// are the only robustserved flags a workload sets; every other flag
	// stays at its default.
	maxWorkloads int
	stateDir     bool
	clients      int
	// benchmarks are the built-in benchmarks setup registers (and the
	// traced ladder measures).
	benchmarks []string
	// primeMethods, when set, makes setup enumerate every registered
	// benchmark's subsets under each setting and these methods and check
	// its full program set, so the measured traffic finds the result
	// cache, the lattice facts and every setting's pair blocks warm.
	primeMethods []string
	// traffic returns client i's closed-loop request generator. Generators
	// may keep state; a step's verify runs before the next call.
	traffic func(r *runEnv, client int, rng *rand.Rand) func() *step
}

// runEnv is what traffic generators see of a run.
type runEnv struct {
	exp *Expected
	w   *workload
	// corpus holds the nine corpus scripts, by ExpCorpus.File.
	corpus map[string]string
}

// Workloads lists the benchmark's workloads in BENCHMARK.json order.
func Workloads() []string {
	out := make([]string, len(workloads))
	for i, w := range workloads {
		out[i] = w.name
	}
	return out
}

func workloadByName(name string) (*workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %v)", name, Workloads())
}

// workloads are the benchmark's traffic mixes; BENCHMARK.json and the
// README record why each exists.
var workloads = []*workload{
	{
		// Repeated questions to a resident service: no pair is computed.
		name:         "warm-service",
		clients:      2,
		benchmarks:   []string{"smallbank", "tpcc", "auction"},
		primeMethods: methods,
		traffic:      warmTraffic,
	},
	{
		// First questions to new workloads: every registration is cold.
		name:         "cold-analysis",
		maxWorkloads: 2,
		clients:      1,
		traffic:      coldTraffic,
	},
	{
		// PATCHes next to reads, with synchronous snapshot writes.
		name:         "patch-churn",
		stateDir:     true,
		clients:      2,
		benchmarks:   []string{"smallbank", "tpcc"},
		primeMethods: []string{"type2"},
		traffic:      patchTraffic,
	},
	{
		// Certification of every minimal non-robust core.
		name:       "certify-cores",
		clients:    1,
		benchmarks: []string{"smallbank", "tpcc"},
		traffic:    certifyTraffic,
	},
}

// setupSteps registers the workload's benchmarks and primes their caches.
func (w *workload) setupSteps(e *Expected) []*step {
	var steps []*step
	for _, b := range w.benchmarks {
		steps = append(steps, e.registerBenchmarkStep(b, false))
	}
	if w.primeMethods == nil {
		return steps
	}
	for _, b := range w.benchmarks {
		full := 1<<len(e.Workloads[b].Programs) - 1
		for _, s := range settingNames() {
			for _, m := range w.primeMethods {
				steps = append(steps, e.subsetsStep(b, s, m))
			}
		}
		steps = append(steps, e.checkStep(b, full, "attr+fk", "type2"))
	}
	return steps
}

// randomCheck picks a non-empty program subset, a setting and a method.
func randomCheck(e *Expected, workload string, rng *rand.Rand) *step {
	n := len(e.Workloads[workload].Programs)
	return e.checkStep(workload, 1+rng.IntN(1<<n-1), pick(rng, settingNames()), pick(rng, methods))
}

func pick[T any](rng *rand.Rand, xs []T) T { return xs[rng.IntN(len(xs))] }

// warmTraffic is 55% check on a random subset, setting and method; 25%
// subsets (result-cache hits); 15% first_non_robust streams; 5% /metrics.
func warmTraffic(r *runEnv, _ int, rng *rand.Rand) func() *step {
	return func() *step {
		b := pick(rng, r.w.benchmarks)
		switch x := rng.Float64(); {
		case x < 0.55:
			return randomCheck(r.exp, b, rng)
		case x < 0.80:
			return r.exp.subsetsStep(b, pick(rng, settingNames()), pick(rng, methods))
		case x < 0.95:
			return r.exp.streamStep(b, pick(rng, settingNames()), pick(rng, methods))
		default:
			return metricsStep()
		}
	}
}

// coldItem is one registration cold-analysis can submit.
type coldItem struct {
	id string
	// workload is the answer-key entry of a corpus script ("" for
	// Auction(n)).
	workload string
	steps    func() []*step
}

// coldItems lists Auction(n) for every n and the nine corpus scripts.
func coldItems(r *runEnv) []coldItem {
	var items []coldItem
	for _, a := range r.exp.AuctionN {
		items = append(items, coldItem{a.ID, "", func() []*step { return auctionNSteps(a) }})
	}
	for _, c := range r.exp.Corpus {
		items = append(items, coldItem{r.exp.Workloads[c.Workload].ID, c.Workload, func() []*step {
			return r.exp.corpusSteps(c, r.corpus[c.File])
		}})
	}
	return items
}

// coldSequence draws registrations whose fingerprint differs from the two
// most recent ones: with -max-workloads 2 every registration is then
// created fresh, evicting the least recently used workload. recent holds
// the ids already resident.
func coldSequence(items []coldItem, recent []string, rng *rand.Rand) func() coldItem {
	recent = slices.Clone(recent)
	return func() coldItem {
		for {
			it := pick(rng, items)
			if !slices.Contains(recent, it.id) {
				recent = append(recent, it.id)
				if len(recent) > 2 {
					recent = recent[1:]
				}
				return it
			}
		}
	}
}

// coldTraffic registers, checks and (for at most five programs)
// enumerates one fresh workload after another.
func coldTraffic(r *runEnv, _ int, rng *rand.Rand) func() *step {
	next := coldSequence(coldItems(r), nil, rng)
	var queue []*step
	return func() *step {
		if len(queue) == 0 {
			queue = next().steps()
		}
		s := queue[0]
		queue = queue[1:]
		return s
	}
}

// patchTraffic: client 0 alternates between the workloads, PATCHing the
// patched program to the variant of the next version, then enumerating
// subsets once and checking three times; client 1 only reads, 70% check
// and 30% subsets. Answers are verified against the variant the response's
// X-Workload-Version selects.
func patchTraffic(r *runEnv, client int, rng *rand.Rand) func() *step {
	if client == 1 {
		return func() *step {
			b := pick(rng, r.w.benchmarks)
			if rng.Float64() < 0.7 {
				return randomCheck(r.exp, b, rng)
			}
			return r.exp.subsetsStep(b, pick(rng, settingNames()), pick(rng, methods))
		}
	}
	versions := make([]uint64, len(patches))
	var queue []*step
	turn := 0
	return func() *step {
		if len(queue) == 0 {
			i := turn % len(patches)
			turn++
			p := patches[i]
			versions[i]++
			queue = []*step{
				r.exp.patchStep(p, versions[i]),
				r.exp.subsetsStep(p.workload, pick(rng, settingNames()), "type2"),
				randomCheck(r.exp, p.workload, rng),
				randomCheck(r.exp, p.workload, rng),
				randomCheck(r.exp, p.workload, rng),
			}
		}
		s := queue[0]
		queue = queue[1:]
		return s
	}
}

// certifyTraffic certifies the answer key's minimal non-robust cores round
// robin, in a seeded order.
func certifyTraffic(r *runEnv, _ int, rng *rand.Rand) func() *step {
	order := rng.Perm(len(r.exp.Cores))
	i := 0
	return func() *step {
		c := r.exp.Cores[order[i%len(order)]]
		i++
		return r.exp.certifyStep(c)
	}
}

// readCorpus loads the nine corpus scripts from the checkout.
func readCorpus(root string, e *Expected) (map[string]string, error) {
	out := make(map[string]string, len(e.Corpus))
	for _, c := range e.Corpus {
		b, err := os.ReadFile(filepath.Join(root, corpusDir, filepath.FromSlash(c.File)))
		if err != nil {
			return nil, err
		}
		out[c.File] = string(b)
	}
	return out, nil
}
