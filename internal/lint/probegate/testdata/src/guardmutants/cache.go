package guardmutants

import "ultracomputer/internal/obs"

// cache mirrors the fields of cache.Cache an emit site reads.
type cache struct {
	subs       *obs.Subs
	out        obs.Probe
	pe         int
	writeBacks int64
}

// wroteBack is cache.Cache.wroteBack (internal/cache/cache.go) with the
// audience computed but never tested.
func (c *cache) wroteBack(a int64) {
	c.writeBacks++
	to := c.subs.For(obs.KindCacheWriteBack, false)
	c.out.Emit(obs.Event{ // want `obs\.Probe Emit on c\.out without a dominating nil check`
		To: to, Cycle: -1, Kind: obs.KindCacheWriteBack, PE: int32(c.pe),
		Stage: -1, MM: -1, Copy: -1, Value: a,
	})
}
