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

// RegisterMetrics publishes the pool's shape as callback gauges:
//
//	crowdkit_pool_tasks          registered tasks
//	crowdkit_pool_open_tasks     tasks still accepting answers
//	crowdkit_pool_answers        committed answers across all tasks
//	crowdkit_pool_active_leases  outstanding (issued, unconsumed) leases
//	crowdkit_pool_in_flight      answers + leases (what assigners balance on)
//	crowdkit_pool_version        mutation counter (cache-invalidation epoch)
//
// Each callback takes the pool read lock when scraped; nothing is added
// to the assignment or recording paths. No-op on a nil registry.
func (cp *ConcurrentPool) RegisterMetrics(reg *obs.Registry) {
	reg.GaugeFunc("crowdkit_pool_tasks", func() float64 { return float64(cp.Len()) })
	reg.GaugeFunc("crowdkit_pool_open_tasks", func() float64 {
		var n int
		cp.View(func(p *Pool) { n = p.OpenCount() })
		return float64(n)
	})
	reg.GaugeFunc("crowdkit_pool_answers", func() float64 { return float64(cp.TotalAnswers()) })
	reg.GaugeFunc("crowdkit_pool_active_leases", func() float64 { return float64(cp.ActiveLeases()) })
	reg.GaugeFunc("crowdkit_pool_in_flight", func() float64 {
		var n int
		cp.View(func(p *Pool) { n = p.TotalAnswers() + p.ActiveLeases() })
		return float64(n)
	})
	reg.GaugeFunc("crowdkit_pool_version", func() float64 { return float64(cp.Version()) })
}

// RegisterMetrics publishes the sharded pool's shape under the same gauge
// names ConcurrentPool uses (aggregated across shards, so dashboards work
// unchanged), plus per-shard breakdowns labeled by shard index:
//
//	crowdkit_shard_tasks{shard="i"}          tasks owned by shard i
//	crowdkit_shard_answers{shard="i"}        committed answers on shard i
//	crowdkit_shard_active_leases{shard="i"}  outstanding leases on shard i
//	crowdkit_shard_version{shard="i"}        shard i's mutation counter
//
// The per-shard gauges make routing skew visible: a hot shard shows up as
// one label outrunning the others. No-op on a nil registry.
func (sp *ShardedPool) RegisterMetrics(reg *obs.Registry) {
	reg.GaugeFunc("crowdkit_pool_tasks", func() float64 { return float64(sp.Len()) })
	reg.GaugeFunc("crowdkit_pool_open_tasks", func() float64 {
		var n int
		sp.ViewAll(func(pools []*Pool) {
			for _, p := range pools {
				n += p.OpenCount()
			}
		})
		return float64(n)
	})
	reg.GaugeFunc("crowdkit_pool_answers", func() float64 { return float64(sp.TotalAnswers()) })
	reg.GaugeFunc("crowdkit_pool_active_leases", func() float64 { return float64(sp.ActiveLeases()) })
	reg.GaugeFunc("crowdkit_pool_in_flight", func() float64 {
		var n int
		sp.ViewAll(func(pools []*Pool) {
			for _, p := range pools {
				n += p.TotalAnswers() + p.ActiveLeases()
			}
		})
		return float64(n)
	})
	reg.GaugeFunc("crowdkit_pool_version", func() float64 { return float64(sp.Version()) })
	reg.GaugeFunc("crowdkit_pool_shards", func() float64 { return float64(sp.NumShards()) })
	if sp.NumShards() == 1 {
		return
	}
	for i, s := range sp.shards {
		s := s
		label := obs.L("shard", strconv.Itoa(i))
		reg.GaugeFunc("crowdkit_shard_tasks", func() float64 { return float64(s.Len()) }, label)
		reg.GaugeFunc("crowdkit_shard_answers", func() float64 { return float64(s.TotalAnswers()) }, label)
		reg.GaugeFunc("crowdkit_shard_active_leases", func() float64 { return float64(s.ActiveLeases()) }, label)
		reg.GaugeFunc("crowdkit_shard_version", func() float64 { return float64(s.Version()) }, label)
	}
}
