package network

import (
	"ultracomputer/internal/msg"
	"ultracomputer/internal/sim"
)

// Unbuffered models the §3.1.2 alternative the Ultracomputer rejects: a
// banyan network without switch queues, where two requests meeting at a
// switch output are resolved by killing one (the Burroughs NASF design).
// A killed request must be reissued by its PE in a later round. The
// paper notes this limits bandwidth to O(N/log N); the acceptance model
// here exhibits exactly that decay and serves as the baseline for the
// bandwidth ablation.
//
// The model is round-based rather than cycle-based: each round, every PE
// may offer one request; the offered set is arbitrated stage by stage
// and the survivors complete (a round stands for one network transit
// plus the memory access).
type Unbuffered struct {
	topo *topology
	rng  *sim.Rand
}

// NewUnbuffered builds a kill-on-conflict banyan with k×k switches and
// the given stage count.
func NewUnbuffered(k, stages int, seed uint64) *Unbuffered {
	return &Unbuffered{topo: newTopology(k, stages, 1), rng: sim.NewRand(seed)}
}

// Ports reports N.
func (u *Unbuffered) Ports() int { return u.topo.n }

// Arbitrate resolves one round: reqs[pe] is PE pe's offered request (nil
// when idle); granted[pe] reports whether it survived every stage. The
// winner at each contended port is chosen uniformly at random among the
// contenders, as unbuffered hardware arbiter would.
func (u *Unbuffered) Arbitrate(reqs []*msg.Request) (granted []bool) {
	t := u.topo
	granted = make([]bool, len(reqs))
	type pos struct{ pe, line int }
	var live []pos
	for p, r := range reqs {
		if r == nil {
			continue
		}
		granted[p] = true
		live = append(live, pos{pe: p, line: t.shuffle(p)})
	}
	for s := 0; s < t.stages; s++ {
		// Route each survivor to its output line at this stage, then
		// kill all but one of each group that shares a line.
		winners := make(map[int]int) // output line -> index into live
		count := make(map[int]int)
		var next []pos
		for _, pc := range live {
			r := reqs[pc.pe]
			sw := pc.line / t.k
			out := t.digit(r.Addr.MM, s)
			outLine := sw*t.k + out
			count[outLine]++
			if idx, ok := winners[outLine]; ok {
				// Reservoir-sample the winner among contenders.
				if u.rng.Intn(count[outLine]) == 0 {
					granted[next[idx].pe] = false
					next[idx] = pos{pe: pc.pe, line: outLine}
					continue
				}
				granted[pc.pe] = false
				continue
			}
			winners[outLine] = len(next)
			next = append(next, pos{pe: pc.pe, line: outLine})
		}
		// Survivors advance through the inter-stage shuffle.
		if s < t.stages-1 {
			for i := range next {
				next[i].line = t.shuffle(next[i].line)
			}
		}
		live = next
	}
	return granted
}

// Throughput measures accepted requests per PE per round under uniform
// random traffic at the given offer probability, over the given number
// of rounds with retry-until-granted semantics.
func (u *Unbuffered) Throughput(offer float64, rounds int) float64 {
	t := u.topo
	pending := make([]*msg.Request, t.n)
	rng := u.rng.Fork()
	accepted := 0
	for round := 0; round < rounds; round++ {
		for p := 0; p < t.n; p++ {
			if pending[p] == nil && rng.Bernoulli(offer) {
				pending[p] = &msg.Request{
					PE:   p,
					Op:   msg.FetchAdd,
					Addr: msg.Addr{MM: rng.Intn(t.n), Word: rng.Intn(1 << 16)},
				}
			}
		}
		for p, ok := range u.Arbitrate(pending) {
			if ok && pending[p] != nil {
				accepted++
				pending[p] = nil
			}
		}
	}
	return float64(accepted) / float64(rounds) / float64(t.n)
}
