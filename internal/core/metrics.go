package core

import (
	"strconv"

	"repro/internal/obs"
)

// RegisterMetrics publishes the budget's accounting as callback gauges:
//
//	crowdkit_budget_spent_units      units spent so far
//	crowdkit_budget_remaining_units  units left (-1 = unlimited)
//
// Callback gauges are evaluated at scrape time only, so registration adds
// zero cost to the charge/refund hot path. No-op on a nil registry.
func (b *Budget) RegisterMetrics(reg *obs.Registry) {
	reg.GaugeFunc("crowdkit_budget_spent_units", b.Spent)
	reg.GaugeFunc("crowdkit_budget_remaining_units", b.Remaining)
}

// RegisterMetrics publishes the sharded pool's shape as callback gauges,
// aggregated across shards:
//
//	crowdkit_pool_tasks          registered tasks
//	crowdkit_pool_open_tasks     tasks still accepting answers
//	crowdkit_pool_answers        committed answers across all tasks
//	crowdkit_pool_active_leases  outstanding (issued, unconsumed) leases
//	crowdkit_pool_in_flight      answers + leases (what assigners balance on)
//	crowdkit_pool_version        mutation counter (cache-invalidation epoch)
//	crowdkit_pool_shards         shard count
//
// With more than one shard it adds per-shard breakdowns labeled by shard
// index:
//
//	crowdkit_shard_tasks{shard="i"}          tasks owned by shard i
//	crowdkit_shard_answers{shard="i"}        committed answers on shard i
//	crowdkit_shard_active_leases{shard="i"}  outstanding leases on shard i
//	crowdkit_shard_version{shard="i"}        shard i's mutation counter
//
// The per-shard gauges make routing skew visible: a hot shard shows up as
// one label outrunning the others. Each callback takes the read locks it
// needs when scraped; nothing is added to the assignment or recording
// paths. No-op on a nil registry.
func (sp *ShardedPool) RegisterMetrics(reg *obs.Registry) {
	sum := func(f func(*Pool) int) func() float64 {
		return func() float64 {
			var n int
			sp.ViewAll(func(pools []*Pool) {
				for _, p := range pools {
					n += f(p)
				}
			})
			return float64(n)
		}
	}
	reg.GaugeFunc("crowdkit_pool_tasks", sum((*Pool).Len))
	reg.GaugeFunc("crowdkit_pool_open_tasks", sum((*Pool).OpenCount))
	reg.GaugeFunc("crowdkit_pool_answers", sum((*Pool).TotalAnswers))
	reg.GaugeFunc("crowdkit_pool_active_leases", sum((*Pool).ActiveLeases))
	reg.GaugeFunc("crowdkit_pool_in_flight", sum(func(p *Pool) int { return p.TotalAnswers() + p.ActiveLeases() }))
	reg.GaugeFunc("crowdkit_pool_version", func() float64 { return float64(sp.Version()) })
	reg.GaugeFunc("crowdkit_pool_shards", func() float64 { return float64(sp.NumShards()) })
	if sp.NumShards() == 1 {
		return
	}
	for i, s := range sp.shards {
		label := obs.L("shard", strconv.Itoa(i))
		read := func(f func(*Pool) int) func() float64 {
			return func() float64 {
				s.mu.RLock()
				defer s.mu.RUnlock()
				return float64(f(s.pool))
			}
		}
		reg.GaugeFunc("crowdkit_shard_tasks", read((*Pool).Len), label)
		reg.GaugeFunc("crowdkit_shard_answers", read((*Pool).TotalAnswers), label)
		reg.GaugeFunc("crowdkit_shard_active_leases", read((*Pool).ActiveLeases), label)
		reg.GaugeFunc("crowdkit_shard_version", func() float64 { return float64(s.version.Load()) }, label)
	}
}
